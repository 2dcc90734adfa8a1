# HiveMind reproduction — common targets.

GO ?= go

.PHONY: all build test race race-eval race-ring race-sim chaos live-smoke bench-smoke sweep sweep-parity shard-parity examples fmt vet clean

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

# Fault-injection suite: every test of the chaos and fleet packages
# (failover, overload, ingress, observability, whole-fleet crash and WAL
# recovery, minority-leader fencing across a partition, snapshot-bounded
# recovery), plus the fault, fencing and durability tests of the layers
# below, all under -race. Every test seeds its injectors and RNGs (fixed
# seeds baked into the tests), so this run is deterministic. Then each
# Fuzz target runs for a few seconds: the rpc error parsers and frame
# decoder, the ingress /then flag, the runtime task envelope and WAL
# replay.
chaos:
	$(GO) test -race -count=1 ./internal/chaos/ ./internal/fleet/
	$(GO) test -race -count=1 \
		-run 'Chaos|Injector|Respawn|FailAll|Stale|Failover|Transport|Replica|Checkpoint|Durable|Straggler|Orphan|Overload|Shed|Deadline|Admission|Fenced|Fence|Partition|WAL|CrashRestart|Snapshot|StepDown|Mux|Ring|Linker|Teardown|HandleLease|OnPromote' \
		./internal/rpc/ ./internal/runtime/ ./internal/store/ ./internal/controller/
	for t in FuzzRedirectTarget FuzzFencedTerms FuzzShedRetryAfter FuzzReadFrame; do \
		$(GO) test -run '^$$' -fuzz "^$$t\$$" -fuzztime 4s ./internal/rpc/ || exit 1; \
	done
	$(GO) test -run '^$$' -fuzz '^FuzzThenFlag$$' -fuzztime 4s ./internal/ingress/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTaskEnvelope$$' -fuzztime 4s ./internal/runtime/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime 4s ./internal/store/

# Observability smoke run: a real TCP fleet with traced requests and a
# chaos-killed primary must emit a non-empty, valid Chrome trace whose
# lanes cover every layer of the stack, and a metrics dump that counts
# the controller's election and the failover the kill forced.
live-smoke:
	$(GO) run ./cmd/hivemind-live -replicas 3 -requests 10 -kill -trace live.json > live.txt; \
		s=$$?; cat live.txt; exit $$s
	grep -q '^counter ctrl-election ' live.txt
	grep -q '^counter ctrl-failover ' live.txt
	$(GO) run ./cmd/hivemind-tracecheck -in live.json \
		-tracks gateway,controller,rpc,runtime

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

# Removes what the targets above leave behind (all of it git-ignored).
clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out live.json live.txt full_report.txt report_*.txt \
		hivemind-bench.parity bench_*.out
