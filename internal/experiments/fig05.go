package experiments

import (
	"fmt"
	"math"

	"hivemind/internal/apps"
	"hivemind/internal/faas"
	"hivemind/internal/platform"
	"hivemind/internal/stats"
)

func init() {
	register("fig05a", "Task latency: fixed allocation vs serverless vs serverless with intra-task parallelism", fig05a)
	register("fig05b", "Elasticity under fluctuating load: serverless vs avg-/max-provisioned fixed deployments", fig05b)
	register("fig05c", "Fault tolerance: active tasks over time under injected function failures", fig05c)
}

// fig05a reproduces Fig. 5a. The CPU-time budget is equal across
// deployments: the fixed pool is sized for the average core demand.
// Arrivals are Poisson (the aggregate of many independent sensors), so
// the near-saturated fixed pool queues heavily while serverless scales
// out per-request — the mechanism behind the order-of-magnitude gap the
// paper shows. Latency is measured within the cloud (from arrival at
// the platform), as §3 does.
func fig05a(cfg RunConfig) *Report {
	rep := &Report{ID: "fig05a", Title: "Fixed vs serverless concurrency (Fig. 5a)"}
	tb := stats.NewTable("Fig. 5a: task latency (s)",
		"job", "fixed_p50", "serverless_p50", "serverless_par_p50", "fixed_p95", "sls_p95", "sls_par_p95")

	duration := jobDuration(cfg)
	ps := suite(cfg)
	type triple struct{ fixed, noPar, withPar *stats.Sample }
	triples := mapPar(cfg, len(ps), func(i int) triple {
		return triple{
			fixed:   poissonCloudJob(cfg, ps[i], duration, true, 1),
			noPar:   poissonCloudJob(cfg, ps[i], duration, false, 1),
			withPar: poissonCloudJob(cfg, ps[i], duration, false, ps[i].Parallelism),
		}
	})
	for i, p := range ps {
		fixed, noPar, withPar := triples[i].fixed, triples[i].noPar, triples[i].withPar
		tb.AddRow(string(p.ID),
			fixed.Median(), noPar.Median(), withPar.Median(),
			fixed.Percentile(95), noPar.Percentile(95), withPar.Percentile(95))
		rep.SetValue("fixed_p50_"+string(p.ID), fixed.Median())
		rep.SetValue("sls_p50_"+string(p.ID), noPar.Median())
		rep.SetValue("slspar_p50_"+string(p.ID), withPar.Median())
	}
	rep.Tables = append(rep.Tables, tb)

	// Shape findings: serverless beats fixed for the parallel heavy
	// jobs; intra-task parallelism helps most for OCR/SLAM-class jobs
	// and least for maze/weather.
	f := rep.Value("fixed_p50_S1") / rep.Value("sls_p50_S1")
	rep.SetValue("serverless_gain_S1", f)
	slam := rep.Value("sls_p50_S10") / rep.Value("slspar_p50_S10")
	rep.SetValue("intratask_gain_S10", slam)
	weather := rep.Value("sls_p50_S7") / rep.Value("slspar_p50_S7")
	rep.SetValue("intratask_gain_S7", weather)
	rep.AddNote("serverless vs fixed on S1: %.1fx; intra-task gain: %.1fx on SLAM vs %.1fx on weather (paper: dramatic for SLAM/OCR, flat for maze/weather/soil)", f, slam, weather)
	return rep
}

// poissonCloudJob submits p's tasks to the cloud with exponential
// interarrival gaps at the default aggregate rate, to either a reserved
// pool of average-demand size (reserved=true) or the serverless
// platform with the given fan-out. It returns in-cloud task latencies.
func poissonCloudJob(cfg RunConfig, p apps.Profile, duration float64, reserved bool, par int) *stats.Sample {
	sys := platform.NewSystem(platform.Preset(platform.CentralizedFaaS, defaultDevices, cfg.Seed))
	eng := sys.Eng
	rng := eng.Rand()
	lat := &stats.Sample{}
	rate := p.TaskRatePerDevice * defaultDevices
	var pool *faas.Reserved
	if reserved {
		cores := int(math.Ceil(rate * p.CloudExecS))
		if cores < 1 {
			cores = 1
		}
		pool = faas.NewReserved(eng, cores)
	}
	var pump func()
	pump = func() {
		if eng.Now() >= duration {
			return
		}
		start := eng.Now()
		spec := faas.FunctionSpec{
			Name: string(p.ID), ExecS: p.CloudExecS, Parallelism: par,
			MemGB: p.MemGB, ExecCV: p.ExecCV, ParentDataMB: p.InputMB,
		}
		done := func() { lat.Add(eng.Now() - start) }
		if pool != nil {
			spec.Parallelism = 1
			spec.ParentDataMB = 0 // long-lived service holds its own state
			pool.Invoke(spec, func(faas.Result) { done() })
		} else {
			sys.Faas.Invoke(spec, func(faas.Result) { done() })
		}
		eng.Defer(rng.ExpFloat64()/rate, pump)
	}
	eng.At(0, pump)
	eng.RunUntil(duration + 120)
	sys.Fleet.StopAll()
	eng.Run()
	return lat
}

// loadShape is the Fig. 5b fluctuating load: one drone at low rate,
// progressively more drones at higher fps, then back down.
func loadShape(t, duration float64) float64 {
	phase := t / duration
	switch {
	case phase < 0.15:
		return 0.08
	case phase < 0.3:
		return 0.3
	case phase < 0.5:
		return 0.7
	case phase < 0.65:
		return 1.0
	case phase < 0.8:
		return 0.5
	default:
		return 0.1
	}
}

// fig05b reproduces Fig. 5b: face recognition under a load ramp on
// serverless, a fixed deployment provisioned for the average load, and
// one provisioned for the peak.
func fig05b(cfg RunConfig) *Report {
	rep := &Report{ID: "fig05b", Title: "Elasticity under fluctuating load (Fig. 5b)"}
	p, _ := apps.ByID(apps.S1FaceRecognition)
	duration := 2 * jobDuration(cfg)
	peakRate := p.TaskRatePerDevice * defaultDevices // tasks/s at peak
	avgScale := 0.0
	steps := 100
	for i := 0; i < steps; i++ {
		avgScale += loadShape(float64(i)/float64(steps)*duration, duration)
	}
	avgScale /= float64(steps)

	type deployment struct {
		name  string
		run   func() *stats.Sample
		cores int
	}
	runServerless := func() *stats.Sample {
		sys := platform.NewSystem(platform.Preset(platform.CentralizedFaaS, defaultDevices, cfg.Seed))
		return driveFluctuating(sys, nil, p, duration, peakRate)
	}
	runReserved := func(cores int) func() *stats.Sample {
		return func() *stats.Sample {
			sys := platform.NewSystem(platform.Preset(platform.CentralizedIaaS, defaultDevices, cfg.Seed))
			pool := faas.NewReserved(sys.Eng, cores)
			return driveFluctuating(sys, pool, p, duration, peakRate)
		}
	}
	avgCores := int(math.Ceil(peakRate * avgScale * p.CloudExecS))
	maxCores := int(math.Ceil(peakRate * p.CloudExecS * 1.1))
	deployments := []deployment{
		{"serverless", runServerless, 0},
		{"fixed-avg", runReserved(avgCores), avgCores},
		{"fixed-max", runReserved(maxCores), maxCores},
	}

	tb := stats.NewTable("Fig. 5b: latency under fluctuating load",
		"deployment", "cores", "p50_s", "p95_s", "p99_s")
	lats := mapPar(cfg, len(deployments), func(i int) *stats.Sample {
		return deployments[i].run()
	})
	for i, d := range deployments {
		lat := lats[i]
		tb.AddRow(d.name, d.cores, lat.Median(), lat.Percentile(95), lat.Percentile(99))
		rep.SetValue(d.name+"_p95", lat.Percentile(95))
		rep.SetValue(d.name+"_p50", lat.Median())
	}
	rep.Tables = append(rep.Tables, tb)
	rep.AddNote("avg-provisioned fixed deployment saturates at peak (p95 %.2fs vs serverless %.2fs); max-provisioned tracks load but wastes %dx the average cores",
		rep.Value("fixed-avg_p95"), rep.Value("serverless_p95"), maxCores/int(math.Max(1, float64(avgCores))))
	return rep
}

// driveFluctuating submits S1 tasks at the shaped rate; pool!=nil sends
// them to the reserved deployment instead of serverless.
func driveFluctuating(sys *platform.System, pool *faas.Reserved, p apps.Profile, duration, peakRate float64) *stats.Sample {
	lat := &stats.Sample{}
	eng := sys.Eng
	rng := eng.Rand()
	var pump func()
	pump = func() {
		if eng.Now() >= duration {
			return
		}
		rate := peakRate * loadShape(eng.Now(), duration)
		if rate < 0.05 {
			rate = 0.05
		}
		gap := 1.0 / rate * (0.7 + 0.6*rng.Float64())
		d := sys.Fleet[rng.Intn(len(sys.Fleet))]
		if pool == nil {
			sys.SubmitTask(p, d, platform.SubmitOpts{}, func(m platform.TaskMetrics) {
				if !m.Dropped {
					lat.Add(m.TotalS())
				}
			})
		} else {
			start := eng.Now()
			pool.Invoke(faas.FunctionSpec{
				Name: string(p.ID), ExecS: p.CloudExecS, Parallelism: 1,
				MemGB: p.MemGB, ExecCV: p.ExecCV,
			}, func(faas.Result) { lat.Add(eng.Now() - start) })
		}
		eng.Defer(gap, pump)
	}
	eng.At(0, pump)
	eng.RunUntil(duration + 60)
	return lat
}

// fig05c reproduces Fig. 5c: number of active tasks over time when a
// fraction of functions fail; the platform respawns them fast enough to
// hide the failures.
func fig05c(cfg RunConfig) *Report {
	rep := &Report{ID: "fig05c", Title: "Fault tolerance: active tasks under failures (Fig. 5c)"}
	p, _ := apps.ByID(apps.S1FaceRecognition)
	duration := jobDuration(cfg) * 1.5

	tb := stats.NewTable("Fig. 5c: task completion under failure injection",
		"failure_%", "submitted", "completed", "respawns", "peak_active", "p99_s")
	baselineDone := 0.0
	fracs := []float64{0, 0.05, 0.10, 0.20}
	type failRun struct {
		res  platform.JobResult
		peak float64
	}
	runs := mapPar(cfg, len(fracs), func(i int) failRun {
		opts := platform.Preset(platform.CentralizedFaaS, defaultDevices, cfg.Seed)
		opts.FaasCfg.FailureProb = fracs[i]
		sys := platform.NewSystem(opts)
		res := sys.RunJob(p, duration)
		return failRun{res: res, peak: sys.Faas.ActiveGauge().Max()}
	})
	for i, frac := range fracs {
		res, peak := runs[i].res, runs[i].peak
		tb.AddRow(frac*100, res.Submitted, res.Completed, res.Respawns, peak, res.Latency.Percentile(99))
		key := fmt.Sprintf("done_%.0f", frac*100)
		rep.SetValue(key, float64(res.Completed))
		rep.SetValue(fmt.Sprintf("respawns_%.0f", frac*100), float64(res.Respawns))
		if frac == 0 {
			baselineDone = float64(res.Completed)
		}
	}
	rep.Tables = append(rep.Tables, tb)
	ratio := rep.Value("done_20") / math.Max(1, baselineDone)
	rep.SetValue("completion_ratio_20pct", ratio)
	rep.AddNote("with 20%% failures, completions stay at %.0f%% of the fault-free run (paper: OpenWhisk hides up to 20%% failed tasks)", ratio*100)
	return rep
}
