// Command hivemind-live boots a real (non-simulated) replica fleet on
// loopback TCP — controller replicas fronting serverless gateways over
// a shared durable store — deploys a DSL program on it through
// synthesis (Explore, Select, synth.Deploy), drives traced requests
// through the program's edge half, and reports what the observability
// layer saw: a Chrome trace with spans from every layer (gateway,
// controller, RPC hop, runtime), the paper's four-stage latency
// decomposition, and the metrics registry.
//
// Usage:
//
//	hivemind-live -replicas 3 -requests 20 -trace live.json
//	hivemind-live -kill -trace live.json          # crash the primary midway
//	hivemind-live -http 127.0.0.1:8080            # keep serving /metrics /trace /debug/pprof
//	hivemind-live -ingress 127.0.0.1:8081         # keep serving the async HTTP job API
//
// With -ingress the fleet stays up serving the job API:
//
//	curl -d 'ping' 'http://127.0.0.1:8081/do/plan'            # → {"resultId":"..."}
//	curl 'http://127.0.0.1:8081/then/<resultId>'              # → ping.plan.act
//	curl -d 'ping' 'http://127.0.0.1:8081/do/plan?then=true'  # block for the result
//
// The job name is the deployed cloud chain's head: the program's
// plan → act component.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/controller"
	"hivemind/internal/dsl"
	"hivemind/internal/fleet"
	"hivemind/internal/ingress"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/runtime"
	"hivemind/internal/stats"
	"hivemind/internal/store"
	"hivemind/internal/synth"
	"hivemind/internal/trace"
)

// program is the demo application: sensing pinned to the device, then
// plan → act, which synthesis offloads to the cloud as one chain under
// costs.
const program = `
TaskGraph(list=['sense','plan','act'])
Task(sense, None, frames, 'tasks/sense', childTask=['plan'])
Task(plan, frames, route, 'tasks/plan', childTask=['act'])
Task(act, route, commands, 'tasks/act')
Place(sense, 'Edge')
`

var costs = map[string]synth.TaskCost{
	"sense": {CloudExecS: 0.004, EdgeExecS: 0.004, Parallelism: 1, OutputMB: 0.01, RatePerDev: 1, Sensor: true},
	"plan":  {CloudExecS: 0.008, EdgeExecS: 0.5, Parallelism: 1, InputMB: 0.01, OutputMB: 0.01, RatePerDev: 1},
	"act":   {CloudExecS: 0.004, EdgeExecS: 0.2, Parallelism: 1, InputMB: 0.01, OutputMB: 0.01, RatePerDev: 1},
}

func main() {
	var (
		replicas = flag.Int("replicas", 3, "controller replica count")
		requests = flag.Int("requests", 20, "traced chain requests to run")
		kill     = flag.Bool("kill", false, "crash the primary replica midway through the run")
		seed     = flag.Int64("seed", 1, "chaos/election seed")
		traceFn  = flag.String("trace", "", "write the fleet's Chrome trace to this file")
		walDir   = flag.String("wal-dir", "",
			"durable store directory: recover prior state from its snapshot+WAL and write-ahead log this run (empty: in-memory)")
		httpAddr = flag.String("http", "",
			"after the run, keep serving /metrics, /trace and /debug/pprof on this address")
		ingressAddr = flag.String("ingress", "",
			"after the run, keep serving the async HTTP job API (POST /do/:job, GET /then/:id) on this address")
	)
	flag.Parse()
	if err := run(*replicas, *requests, *kill, *seed, *traceFn, *walDir, *httpAddr, *ingressAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(replicas, requests int, kill bool, seed int64, traceFn, walDir, httpAddr, ingressAddr string) error {
	dep, err := deploy()
	if err != nil {
		return err
	}
	fmt.Printf("deployed: %v\n", dep)
	rec := trace.NewRecorder(0)
	live := trace.NewLive(rec)
	reg := metrics.NewRegistry()
	inj := chaos.NewInjector(seed, chaos.Config{})

	var db *store.DB
	if walDir != "" {
		opts := store.DefaultDurableOptions()
		opts.Fsync = store.FsyncBatch
		opts.Monitor = reg
		ddb, st, err := store.OpenDurable(walDir, opts)
		if err != nil {
			return fmt.Errorf("open durable store %s: %w", walDir, err)
		}
		db = ddb
		fmt.Printf("recovered %s in %v: %d snapshot docs + %d WAL records (torn tail: %v), fence at term %d\n",
			walDir, st.Elapsed.Round(time.Microsecond), st.SnapshotDocs, st.WALRecords, st.TruncatedTail, ddb.Fence())
	} else {
		db = store.NewDB()
		db.SetMonitor(reg)
	}

	// Every gateway serves the program's cloud half behind the admission
	// front door. Every replica and gateway reports into the one metrics
	// registry; the fleet wires tracer, breakdowns and the RPC server
	// interceptor.
	f, err := fleet.Start(fleet.Config{
		Replicas: replicas,
		Seed:     seed,
		Store:    db,
		Monitor:  reg,
		Fault:    inj,
		Tracer:   live,
		Runtime:  runtime.DefaultConfig(),
		Gateway: runtime.GatewayConfig{
			Timeout:      10 * time.Second,
			StepRespawns: 1,
			Overload:     &runtime.AdmissionConfig{},
		},
		Setup: func(nd *fleet.Node) { dep.Setup(nd.Runtime, nd.Gateway) },
	})
	if err != nil {
		db.Close()
		return err
	}
	defer f.Close()
	if _, err := f.Leader(5 * time.Second); err != nil {
		return err
	}

	// The demo's client rides the same per-peer links as every other
	// remote tier: one framed TCP connection per gateway.
	peers := make([]runtime.Peer, len(f.Nodes))
	for i, addr := range f.Addrs() {
		peers[i] = runtime.Peer{Addr: addr}
	}
	linker := runtime.NewLinker(runtime.LinkerOptions{})
	defer linker.Close()
	fc := linker.Failover(peers, rpc.FailoverOptions{
		Attempts:     20 * len(peers),
		RetryBackoff: 15 * time.Millisecond,
		CallTimeout:  5 * time.Second,
		Observer:     runtime.TraceCallObserver(live),
	})
	defer fc.Close()

	killed := false
	ok, failed := 0, 0
	for i := 0; i < requests; i++ {
		if kill && !killed && i == requests/2 {
			if p, err := f.Leader(5 * time.Second); err == nil {
				fmt.Printf("killing primary replica %d at request %d\n", p.ID, i)
				inj.At(controller.KillControllerOp(p.ID), 0)
				killed = true
			}
		}
		id := fmt.Sprintf("task-%03d", i)
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		_, cerr := dep.Run(ctx, fc.Call, id, []byte("ping"))
		cancel()
		reg.Observe("request-latency-s", time.Since(start).Seconds())
		reg.MeterAdd("requests", 1)
		if cerr != nil {
			failed++
			reg.CountEvent("request-failed")
			fmt.Printf("request %s failed: %v\n", id, cerr)
			continue
		}
		ok++
		reg.CountEvent("request-ok")
	}
	fmt.Printf("ran %d requests: %d ok, %d failed across %d replicas\n", requests, ok, failed, replicas)

	// Per-gateway breakdowns fold into one fleet-wide decomposition.
	bd := stats.NewBreakdown()
	for _, nd := range f.Nodes {
		bd.Merge(nd.Gateway.Breakdown())
	}
	fmt.Println(stageTable(bd))
	fmt.Printf("controller: %s\n", controller.Failover(reg))

	fmt.Println("metrics:")
	if err := reg.WriteText(os.Stdout); err != nil {
		return err
	}

	if traceFn != "" {
		out, err := os.Create(traceFn)
		if err != nil {
			return err
		}
		if err := rec.WriteChromeTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d spans to %s\n%s", rec.Len(), traceFn, rec.Summary())
	}
	if ingressAddr != "" {
		// The job API front door: async submissions with durable result
		// ids, dispatched through the leader-following client, resolved
		// from checkpoints when memory has no record of an id.
		ing, err := ingress.NewServer(ingress.Options{
			Dispatcher: fc,
			Encode:     runtime.EncodeTask,
			Lookup:     f.Nodes[0].Gateway.TaskResult,
			Monitor:    reg,
		})
		if err != nil {
			return err
		}
		defer ing.Close()
		reg.GaugeFunc("ingress-pending", func() float64 { return float64(ing.Depth()) })
		if httpAddr != "" {
			go func() {
				fmt.Printf("serving /metrics /trace /debug/pprof on %s\n", httpAddr)
				if err := http.ListenAndServe(httpAddr, metrics.DebugMux(reg, rec)); err != nil {
					fmt.Fprintln(os.Stderr, "debug server:", err)
				}
			}()
		}
		fmt.Printf("serving job API (POST /do/:job, GET /then/:id) on %s (Ctrl-C to stop)\n", ingressAddr)
		return http.ListenAndServe(ingressAddr, ing)
	}
	if httpAddr != "" {
		fmt.Printf("serving /metrics /trace /debug/pprof on %s (Ctrl-C to stop)\n", httpAddr)
		return http.ListenAndServe(httpAddr, metrics.DebugMux(reg, rec))
	}
	return nil
}

// deploy places program under costs and wires the chosen candidate
// with the demo's tiers, each doing a few milliseconds of "work" so the
// execution stage is visible in the breakdown.
func deploy() (*synth.Deployment, error) {
	g, err := dsl.ParseAndAnalyze(program)
	if err != nil {
		return nil, err
	}
	cands, err := synth.Explore(g, costs, synth.DefaultEnv(16))
	if err != nil {
		return nil, err
	}
	best, _ := synth.Select(cands, g.Constraints, 0)
	tier := func(tag string, d time.Duration) runtime.Function {
		return func(ctx context.Context, in []byte) ([]byte, error) {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return append(append([]byte{}, in...), tag...), nil
		}
	}
	return synth.Deploy(g, best, map[string]runtime.Function{
		"sense": tier(".sense", 4*time.Millisecond),
		"plan":  tier(".plan", 8*time.Millisecond),
		"act":   tier(".act", 4*time.Millisecond),
	})
}

// stageTable renders the four-stage latency decomposition (the paper's
// Figs. 3a/6b/12 axes) as a per-stage latency table.
func stageTable(bd *stats.Breakdown) string {
	t := stats.NewTable(fmt.Sprintf("per-stage latency (%d tasks)", bd.N()),
		"stage", "mean_ms", "p50_ms", "p99_ms", "frac")
	for _, st := range stats.AllStages {
		s := bd.Stage(st)
		t.AddRow(string(st),
			fmt.Sprintf("%.3f", s.Mean()*1e3),
			fmt.Sprintf("%.3f", s.Percentile(50)*1e3),
			fmt.Sprintf("%.3f", s.Percentile(99)*1e3),
			fmt.Sprintf("%.3f", bd.MeanFraction(st)))
	}
	tot := bd.Total()
	t.AddRow("total",
		fmt.Sprintf("%.3f", tot.Mean()*1e3),
		fmt.Sprintf("%.3f", tot.Percentile(50)*1e3),
		fmt.Sprintf("%.3f", tot.Percentile(99)*1e3),
		"1.000")
	return t.String()
}
