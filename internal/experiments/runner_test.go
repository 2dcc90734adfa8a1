package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepOutput renders the full quick sweep at the given parallelism the
// same way hivemind-bench writes its report file.
func sweepOutput(parallelism int) string {
	var sb strings.Builder
	for _, r := range RunAll(RunConfig{Seed: 1, Quick: true, Parallelism: parallelism}) {
		sb.WriteString(r.Report.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

// goldenSweep holds the SHA-256 of the serial quick sweep at seed 1.
const goldenSweep = "testdata/quick_sweep_seed1.sha256"

// TestParallelSweepByteIdentical is the contract the parallel runner
// must keep: a sweep at Parallelism 8 renders byte-for-byte the same
// reports as a serial sweep at the same seed. On amd64 the serial sweep
// must also hash to the recorded golden value, so a change meant to keep
// every figure as it was proves it did (other architectures may fuse
// floating-point operations differently).
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick sweep")
	}
	serial := sweepOutput(1)
	if runtime.GOARCH == "amd64" {
		want, err := os.ReadFile(goldenSweep)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(serial))
		if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
			t.Fatalf("quick sweep at seed 1 hashes to %s, %s records %s: a change that moves a figure on purpose rewrites that file with the new hash", got, goldenSweep, strings.TrimSpace(string(want)))
		}
	}
	par := sweepOutput(8)
	if serial != par {
		a, b := strings.Split(serial, "\n"), strings.Split(par, "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("parallel sweep diverges from serial at line %d:\n  serial:   %q\n  parallel: %q", i+1, a[i], b[i])
			}
		}
		t.Fatalf("parallel sweep output length differs: %d vs %d bytes", len(serial), len(par))
	}
}

func TestRunAllOrderAndElapsed(t *testing.T) {
	results := RunAll(RunConfig{Seed: 1, Quick: true, Parallelism: 4})
	all := All()
	if len(results) != len(all) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(all))
	}
	for i, r := range results {
		if r.Experiment.ID != all[i].ID {
			t.Fatalf("results[%d] = %s, want %s (registry order)", i, r.Experiment.ID, all[i].ID)
		}
		if r.Report == nil {
			t.Fatalf("%s returned a nil report", r.Experiment.ID)
		}
		if r.Elapsed < 0 {
			t.Fatalf("%s has negative elapsed time", r.Experiment.ID)
		}
	}
}

func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	for _, parallelism := range []int{0, 1, 3, 16} {
		cfg := RunConfig{Parallelism: parallelism}.withExec()
		const n = 100
		var hits [n]atomic.Int32
		fanOut(cfg, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("parallelism %d: index %d ran %d times", parallelism, i, got)
			}
		}
	}
}

func TestFanOutZeroItems(t *testing.T) {
	cfg := RunConfig{Parallelism: 8}.withExec()
	fanOut(cfg, 0, func(int) { t.Fatal("work invoked for n=0") })
}

func TestMapParPreservesIndexOrder(t *testing.T) {
	cfg := RunConfig{Parallelism: 8}.withExec()
	got := mapPar(cfg, 50, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("mapPar[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMemoizedComputesOnce(t *testing.T) {
	cfg := RunConfig{Parallelism: 8}.withExec()
	var calls atomic.Int32
	vals := mapPar(cfg, 20, func(i int) int {
		return memoized(&cfg.exec.jobs, "same-key", func() int {
			calls.Add(1)
			return 42
		})
	})
	for _, v := range vals {
		if v != 42 {
			t.Fatalf("memoized value = %d, want 42", v)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
}
