package experiments

import (
	"fmt"

	"hivemind/internal/apps"
	"hivemind/internal/platform"
	"hivemind/internal/scenario"
	"hivemind/internal/stats"
)

func init() {
	register("fig03a", "Latency breakdown (network/management/execution) under all-cloud execution", fig03a)
	register("fig03b", "Wireless bandwidth and tail latency vs swarm size and frame resolution (S1)", fig03b)
}

// fig03a reproduces Fig. 3a: where end-to-end latency goes when all
// computation is offloaded to the serverless cloud, for S1–S10 and the
// two end-to-end scenarios, at median and p99.
func fig03a(cfg RunConfig) *Report {
	rep := &Report{ID: "fig03a", Title: "Latency breakdown, centralized FaaS (Fig. 3a)"}
	tb := stats.NewTable("Fig. 3a: fraction of latency per stage",
		"job", "net_p50_%", "mgmt_p50_%", "exec_p50_%", "net_p99_%", "mgmt_p99_%", "exec_p99_%")

	var netFracs []float64
	record := func(name string, bd *stats.Breakdown) {
		// Fig. 3a folds data sharing into "execution".
		combine := func(pct float64) (net, mgmt, exec float64) {
			fr := bd.Fractions(pct)
			return fr[stats.StageNetwork], fr[stats.StageManagement],
				fr[stats.StageExecution] + fr[stats.StageDataIO]
		}
		n50, m50, e50 := combine(50)
		n99, m99, e99 := combine(99)
		tb.AddRow(name, n50*100, m50*100, e50*100, n99*100, m99*100, e99*100)
		rep.SetValue("net_frac_p50_"+name, n50)
		netFracs = append(netFracs, n50)
	}

	ps := suite(cfg)
	scens := []scenario.Kind{scenario.ScenarioA, scenario.ScenarioB}
	jobRes := mapPar(cfg, len(ps), func(i int) platform.JobResult {
		return runJobOn(platform.CentralizedFaaS, ps[i], cfg, defaultDevices)
	})
	scenRes := mapPar(cfg, len(scens), func(i int) scenario.Result {
		return runScenarioOn(scens[i], platform.CentralizedFaaS, cfg, defaultDevices)
	})
	for i, p := range ps {
		record(string(p.ID), jobRes[i].Breakdown)
	}
	for i, k := range scens {
		record(k.String(), scenRes[i].Breakdown)
	}
	rep.Tables = append(rep.Tables, tb)

	var sum float64
	for _, f := range netFracs {
		sum += f
	}
	mean := sum / float64(len(netFracs))
	rep.SetValue("net_frac_mean", mean)
	rep.AddNote("networking accounts for %.0f%% of median latency on average (paper: 33%%, ≥22%% per job)", mean*100)
	return rep
}

// fig03b reproduces Fig. 3b: S1 with every frame shipped to the cloud,
// sweeping drone count × frame size; the wireless medium saturates and
// tail latency explodes.
func fig03b(cfg RunConfig) *Report {
	rep := &Report{ID: "fig03b", Title: "Network saturation sweep (Fig. 3b)"}
	tb := stats.NewTable("Fig. 3b: S1 all-frames offload",
		"frame_MB", "drones", "bw_MBps", "p99_latency_s")

	frames := []float64{0.5, 1, 2, 4, 8}
	droneCounts := []int{2, 4, 8, 12, 16}
	if cfg.Quick {
		frames = []float64{0.5, 2, 8}
		droneCounts = []int{2, 8, 16}
	}
	duration := jobDuration(cfg)

	runs := mapPar(cfg, len(frames)*len(droneCounts), func(i int) platform.JobResult {
		frameMB, n := frames[i/len(droneCounts)], droneCounts[i%len(droneCounts)]
		// Per-frame recognition: 8 fps per drone, each frame its own
		// task (per-frame share of the S1 batch compute).
		prof := apps.Profile{
			ID: "S1", Name: "Face Recognition per-frame",
			CloudExecS: 0.1, EdgeExecS: 0.45, Parallelism: 2,
			InputMB: frameMB, OutputMB: 0.01,
			TaskRatePerDevice: 8, MemGB: 2, ExecCV: 0.15,
		}
		sys := platform.NewSystem(platform.Preset(platform.CentralizedFaaS, n, cfg.Seed))
		return sys.RunJob(prof, duration)
	})
	for fi, frameMB := range frames {
		for ni, n := range droneCounts {
			res := runs[fi*len(droneCounts)+ni]
			p99 := res.Latency.Percentile(99)
			tb.AddRow(frameMB, n, res.BWMeanMBps, p99)
			rep.SetValue(key3b(frameMB, n, "bw"), res.BWMeanMBps)
			rep.SetValue(key3b(frameMB, n, "p99"), p99)
		}
	}
	rep.Tables = append(rep.Tables, tb)

	low := rep.Value(key3b(8, 2, "p99"))
	high := rep.Value(key3b(8, 16, "p99"))
	rep.SetValue("saturation_blowup_8MB", high/low)
	rep.AddNote("8MB frames: p99 inflates %.1fx from 2 to 16 drones (saturation knee, paper Fig. 3b)", high/low)
	return rep
}

func key3b(frameMB float64, drones int, metric string) string {
	return fmt.Sprintf("f%g_%d_%s", frameMB, drones, metric)
}
