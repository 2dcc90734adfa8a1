# HiveMind reproduction — common targets.

GO ?= go

.PHONY: all build test race race-eval race-ring race-sim chaos crash-smoke live-smoke overload-smoke ingress-smoke bench-smoke bench-eval bench-gateway bench-store bench-sim bench-all sweep sweep-parity shard-parity examples fmt vet clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Focused race lane for the parallel evaluation pipeline: the runner
# fans experiments and sweep points across goroutines, so these two
# packages get a dedicated -count=1 pass (no cached results).
race-eval:
	$(GO) test -race -count=1 ./internal/experiments/ ./internal/synth/

# Shared-memory ring + mux race lane: the lock-free MPMC ring
# (concurrent producers, close-during-send, reconnect), the per-stream
# dispatcher, writer teardown, and buffer lending, all under the race
# detector with -count=2 for schedule diversity.
race-ring:
	$(GO) test -race -count=2 \
		-run 'Ring|Mux|Stream|Teardown|Lend|Lent|PutBuf' \
		./internal/rpc/ ./internal/runtime/ ./internal/chaos/

# Sharded-executive race lane: the per-geo-cell engines, the window
# barrier, the cross-cell radio and the mega-swarm mission, all under
# the race detector with worker counts > 1 so the windows genuinely
# interleave. -count=2 for schedule diversity.
race-sim:
	$(GO) test -race -count=2 \
		-run 'Shard|Window|Swarm|Mega|Cell|Radio|Neighbor' \
		./internal/sim/ ./internal/netsim/ ./internal/geo/ ./internal/scenario/

# Fault-injection suite: every chaos test seeds its injectors and RNGs
# (fixed seeds baked into the tests), so this run is deterministic.
chaos:
	$(GO) test -race -count=1 \
		-run 'Chaos|Injector|Breaker|Respawn|FailAll|Heartbeat|Failover|Transport|Replica|Checkpoint|Durable|Straggler|Orphan|Budget|Overload|Burst|Shed|Deadline|Storm|Admission|Fenced|Fence|Partition|WAL|CrashRestart|Snapshot|StepDown|Mux|Ring|Linker|Teardown' \
		./internal/chaos/ ./internal/rpc/ ./internal/runtime/ ./internal/store/ ./internal/controller/

# Durability & split-brain lane under -race: whole-cluster crash and
# WAL recovery, minority-leader fencing across a symmetric partition,
# snapshot/compaction bounding recovery, plus the store-level torn-tail
# and fence unit suites. Seeded and deterministic like the chaos lane.
crash-smoke:
	$(GO) test -race -count=1 \
		-run 'CrashRestartE2E|PartitionE2E|SnapshotMidTraffic|PartitionPair|DurableRecover|DurableSnapshot|DurableCompaction|RaiseFence|FenceSurvives|FencedWrites|WALTornTail|OrphansQuarantines|HandleLease|StepDown|OnPromote' \
		./internal/chaos/ ./internal/store/ ./internal/controller/

# Observability smoke run: a real TCP fleet with traced requests and a
# chaos-killed primary must emit a non-empty, valid Chrome trace whose
# lanes cover every layer of the stack.
live-smoke:
	$(GO) run ./cmd/hivemind-live -replicas 3 -requests 10 -kill -trace live.json
	$(GO) run ./cmd/hivemind-tracecheck -in live.json \
		-tracks gateway,controller,rpc,runtime

# Overload smoke run: an in-process fleet driven open-loop at 1.5x its
# measured capacity for 30s. The gate inside the loadgen asserts the
# admission controller shed something (the overload was real) while
# admitted-request p99 held the SLO (the shedding protected latency).
overload-smoke:
	$(GO) run ./cmd/hivemind-loadgen -smoke -duration 30s -load 1.5

# Ingress smoke run: a 3-member queue group behind the async HTTP job
# API, driven open-loop at 1.8x its measured capacity. The gate asserts
# the group shed load (503 + Retry-After made it through the HTTP
# mapping) while admitted-request p99 held the SLO.
ingress-smoke:
	$(GO) run ./cmd/hivemind-loadgen -http -gateways 3 -smoke \
		-duration 20s -load 1.8 -exec 20ms -workers 4 -slo 400ms

# Gateway overload benchmark: the same fleet driven at 2x capacity with
# admission control off, then on, recorded to BENCH_gateway.json. The
# committed baseline shows the uncontrolled collapse (goodput craters,
# p99 pegs at the deadline) against the controlled profile (goodput
# holds at capacity, p99 stays low, excess is shed). The HTTP-path
# suite (1 gateway, 3-gateway queue group, 3-gateway duplicate-heavy)
# is gated against the committed "gateway-http" medians at 10% before
# the file is rewritten.
bench-gateway:
	$(GO) run ./cmd/hivemind-loadgen -compare -duration 10s -load 2 -json BENCH_gateway.json
	$(GO) run ./cmd/hivemind-loadgen -http -suite -duration 10s -load 1.5 -exec 10ms -workers 8 \
		-gate BENCH_gateway.json -gate-label gateway-http -tolerance 0.10 \
		-json BENCH_gateway.json -label gateway-http

# The benchmark ledger (BENCHMARK.json, benchmark/) is a Go module of
# its own that `go build ./...` and `go test ./...` never compile, so a
# change to an API it calls can break it unnoticed: vet and test the
# module, then run every workload once for a moment. RPC data-plane
# numbers live in that ledger (rpc.ring_echo_ns, rpc.tcp_echo_ns,
# rpc.mux_echo_ns, rpc.mux_pipelined_ns, rpc.large_echo_us);
# internal/rpc/bench_test.go remains for `go test -bench` while working.
bench-smoke:
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...)
	bash benchmark/run.sh --smoke

# Label under which the bench-* targets below record a run.
BENCH_LABEL ?= post

# Evaluation-pipeline benchmarks: quick-sweep wall clock plus the
# synthesis-explorer and DES hot-loop micro-benchmarks, recorded as
# JSON under BENCH_LABEL (default "post"). Existing labels in
# BENCH_eval.json are preserved, so the committed "pre" baseline
# survives re-runs.
bench-eval:
	$(GO) test -run '^$$' -bench '^BenchmarkQuickSweep$$' -benchtime 1x -count=1 \
		./internal/experiments/ > bench_eval.out
	$(GO) test -run '^$$' -bench '^(BenchmarkExplore|BenchmarkExploreWide|BenchmarkEnumerate)$$' \
		-benchmem -count=1 ./internal/synth/ >> bench_eval.out
	$(GO) test -run '^$$' -bench '^BenchmarkRunUntil$$' -benchmem -count=1 \
		./internal/sim/ >> bench_eval.out
	$(GO) run ./cmd/hivemind-benchjson -in bench_eval.out -out BENCH_eval.json -label $(BENCH_LABEL)
	rm -f bench_eval.out

# Store durability benchmarks: WAL append overhead on the write path
# (fsync off and group-commit) and recovery time at 10k-update history
# before vs after compaction, recorded under BENCH_LABEL. Existing
# labels in BENCH_store.json are preserved, so the committed baseline
# survives re-runs.
bench-store:
	$(GO) test -run '^$$' -bench '^(BenchmarkDurablePut|BenchmarkWALAppend|BenchmarkRecover)' \
		-benchmem -count=1 ./internal/store/ > bench_store.out
	$(GO) run ./cmd/hivemind-benchjson -in bench_store.out -out BENCH_store.json -label $(BENCH_LABEL)
	rm -f bench_store.out

# Sharded-simulation benchmarks: the 10⁴-device mega-swarm mission at
# 1/2/8 executive workers (the shards=8 vs shards=1 ratio is the
# headline speedup; on a single-core host the ratio is ~1 and the
# committed numbers say so) plus the neighbor-index build vs the naive
# all-pairs scan it replaced. Gated against the committed "post"
# medians at 10% before BENCH_sim.json is rewritten; CI sets
# BENCH_GATE=0 because shared runners are too noisy to gate on wall
# clock.
BENCH_GATE ?= 1
bench-sim:
	$(GO) test -run '^$$' -bench '^BenchmarkMegaSwarm10k$$' -benchtime 1x -count=5 \
		./internal/scenario/ > bench_sim.out
	$(GO) test -run '^$$' -bench '^BenchmarkNeighborBuild$$' -benchmem -count=5 \
		./internal/netsim/ >> bench_sim.out
	@if [ "$(BENCH_GATE)" = "1" ]; then \
		$(GO) run ./cmd/hivemind-benchjson -in bench_sim.out \
			-gate BENCH_sim.json -gate-label post -tolerance 0.10 \
			'BenchmarkMegaSwarm10k/shards=1' 'BenchmarkMegaSwarm10k/shards=8' \
			'BenchmarkNeighborBuild/indexed' || { rm -f bench_sim.out; exit 1; }; \
	fi
	$(GO) run ./cmd/hivemind-benchjson -in bench_sim.out -out BENCH_sim.json -label $(BENCH_LABEL) -median
	rm -f bench_sim.out

# Every benchmark in the repo, human-readable.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# Full paper-scale evaluation (writes the EXPERIMENTS.md data).
sweep:
	$(GO) run ./cmd/hivemind-bench -out full_report.txt

# Parity gate: a parallel quick sweep must produce byte-identical
# reports to a serial one at the same seed. cmp failing fails the build.
sweep-parity:
	$(GO) build -o hivemind-bench.parity ./cmd/hivemind-bench
	./hivemind-bench.parity -quick -parallel 1 -out report_serial.txt > /dev/null
	./hivemind-bench.parity -quick -parallel 0 -out report_parallel.txt > /dev/null
	cmp report_serial.txt report_parallel.txt
	rm -f hivemind-bench.parity report_serial.txt report_parallel.txt

# Sharding parity gate: the mega-swarm driver must write byte-identical
# reports whether one worker or eight execute the per-cell engines —
# the determinism guarantee of the conservative time-window executive
# (chaos deaths, RNG jitter and window accounting included).
shard-parity:
	$(GO) build -o hivemind-bench.parity ./cmd/hivemind-bench
	./hivemind-bench.parity -quick -run mega01 -shards 1 -out report_s1.txt > /dev/null
	./hivemind-bench.parity -quick -run mega01 -shards 2 -out report_s2.txt > /dev/null
	./hivemind-bench.parity -quick -run mega01 -shards 8 -out report_s8.txt > /dev/null
	cmp report_s1.txt report_s2.txt
	cmp report_s1.txt report_s8.txt
	rm -f hivemind-bench.parity report_s1.txt report_s2.txt report_s8.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/treasurehunt
	$(GO) run ./examples/peoplecount
	$(GO) run ./examples/rovermaze
	$(GO) run ./examples/dslsynth
	$(GO) run ./examples/localfaas

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
