package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// buildNeighborsNaive is the reference all-pairs scan the index
// replaces; tests assert set equality and the bench measures what the
// binning buys.
func buildNeighborsNaive(pts []geo.Point, rangeM []float64) [][]int32 {
	out := make([][]int32, len(pts))
	for d, p := range pts {
		r2 := rangeM[d] * rangeM[d]
		if r2 <= 0 {
			continue
		}
		for e, q := range pts {
			if e == d {
				continue
			}
			dx, dy := q.X-p.X, q.Y-p.Y
			if dx*dx+dy*dy <= r2 {
				out[d] = append(out[d], int32(e))
			}
		}
	}
	return out
}

// randomLayout scatters n devices with mixed radio ranges (long-range
// drones down to short-range tiny robots).
func randomLayout(n int, fieldM float64, seed int64) ([]geo.Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	ranges := make([]float64, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * fieldM, Y: rng.Float64() * fieldM}
		switch i % 10 {
		case 0:
			ranges[i] = 60 // drone
		case 1, 2, 3:
			ranges[i] = 35 // rover
		default:
			ranges[i] = 12 // tiny robot
		}
	}
	return pts, ranges
}

// swarmLayout is the mega-swarm's layout: n devices at 0.01 per m²,
// 10 % drones (60 m), 30 % rovers (35 m) and 60 % tiny robots (14 m).
func swarmLayout(n int, seed int64) ([]geo.Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	side := math.Sqrt(float64(n)) * 10
	pts := make([]geo.Point, n)
	ranges := make([]float64, n)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		switch u := rng.Float64(); {
		case u < 0.1:
			ranges[i] = 60
		case u < 0.4:
			ranges[i] = 35
		default:
			ranges[i] = 14
		}
	}
	return pts, ranges
}

// TestNeighborIndexMatchesNaive: the binned build must produce exactly
// the lists the all-pairs scan produces — same sets, ascending — for
// mixed asymmetric ranges and the layouts that stress the bin sizing:
// no positive range, every device on one point, and one tiny range in
// a large field, where the build must still allocate O(n) bytes.
func TestNeighborIndexMatchesNaive(t *testing.T) {
	type layout struct {
		name   string
		pts    []geo.Point
		ranges []float64
	}
	var rows []layout
	for _, n := range []int{1, 17, 400} {
		pts, ranges := randomLayout(n, 300, int64(n))
		rows = append(rows, layout{fmt.Sprintf("random n=%d", n), pts, ranges})
	}
	pts, ranges := swarmLayout(1000, 3)
	rows = append(rows, layout{"swarm mix", pts, ranges})
	pts, _ = randomLayout(200, 300, 5)
	rows = append(rows, layout{"all ranges 0", pts, make([]float64, 200)})
	pts, ranges = randomLayout(50, 300, 6)
	for i := range pts {
		pts[i] = geo.Point{X: 42, Y: 7}
	}
	rows = append(rows, layout{"coincident", pts, ranges})
	pts, ranges = randomLayout(1000, 1000, 7)
	ranges[500] = 0.001
	rows = append(rows, layout{"1 mm range in 1 km field", pts, ranges})

	for _, row := range rows {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ix := BuildNeighborIndex(row.pts, row.ranges)
		runtime.ReadMemStats(&after)
		for d, want := range buildNeighborsNaive(row.pts, row.ranges) {
			if got := ix.Neighbors(d); !slices.Equal(got, want) {
				t.Fatalf("%s device %d: indexed %v != naive %v", row.name, d, got, want)
			}
		}
		// Bins, offsets and both list buffers: a few dozen bytes per
		// device and per neighbour, where an unbounded grid at the 1 mm
		// range would need 10¹² bins.
		n, m := uint64(len(row.pts)), uint64(len(ix.nbr))
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 64*n+16*m+4096 {
			t.Fatalf("%s: build allocated %d B for %d devices, %d neighbours", row.name, bytes, n, m)
		}
	}
}

// TestNeighborIndexMatchesNaiveOnLattice: on a lattice, devices sit
// exactly on bin edges and exactly at range from each other (up to
// float rounding at the 0.1 m scale). The index scans only the bins a
// range's bounding box touches, so this is where it could drop one.
func TestNeighborIndexMatchesNaiveOnLattice(t *testing.T) {
	for _, step := range []float64{10, 0.1} {
		var pts []geo.Point
		var ranges []float64
		for i := 0; i < 24; i++ {
			for j := 0; j < 24; j++ {
				pts = append(pts, geo.Point{X: float64(i) * step, Y: float64(j) * step})
				ranges = append(ranges, float64(1+(i+j)%3)*step)
			}
		}
		ix := BuildNeighborIndex(pts, ranges)
		for d, want := range buildNeighborsNaive(pts, ranges) {
			if got := ix.Neighbors(d); !slices.Equal(got, want) {
				t.Fatalf("step %g device %d: indexed %v != naive %v", step, d, got, want)
			}
		}
	}
}

// TestNeighborQueryAllocFree: the range query the broadcast hot path
// performs per transmission must not allocate — that is the point of
// replacing the per-transmission scan with the prebuilt index.
func TestNeighborQueryAllocFree(t *testing.T) {
	pts, ranges := randomLayout(500, 300, 7)
	ix := BuildNeighborIndex(pts, ranges)
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for d := 0; d < 500; d++ {
			sink += len(ix.Neighbors(d))
		}
	})
	if allocs != 0 {
		t.Fatalf("Neighbors allocated %.1f per run, want 0", allocs)
	}
	_ = sink
}

// TestNeighborIndexBeatsNaiveScan: the ns ceiling for the index build.
// The binned build must beat the O(all-devices²) scan by a wide margin
// at mega-swarm densities; the margin is asserted loosely (3×) so CI
// noise cannot flake it, and skipped under the race detector where
// instrumentation distorts both sides.
func TestNeighborIndexBeatsNaiveScan(t *testing.T) {
	if raceEnabled {
		t.Skip("timing assertion not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("timing comparison skipped in -short")
	}
	pts, ranges := randomLayout(8000, 1400, 11)
	timeIt := func(f func()) time.Duration {
		start := time.Now()
		f()
		return time.Since(start)
	}
	// Warm once to populate caches, then measure.
	BuildNeighborIndex(pts, ranges)
	indexed := timeIt(func() { BuildNeighborIndex(pts, ranges) })
	naive := timeIt(func() { buildNeighborsNaive(pts, ranges) })
	if naive < 3*indexed {
		t.Fatalf("indexed build %v not ≥3× faster than naive %v", indexed, naive)
	}
}

// buildRadio wires a 2×2-cell sharded world with a deterministic
// layout.
func buildRadio(t *testing.T, workers int, latency float64, deliver Deliver) (*sim.ShardedEngine, *Radio, *geo.CellIndex, []geo.Point) {
	t.Helper()
	pts, ranges := randomLayout(200, 120, 3)
	cells := geo.Partition(geo.NewField(120, 120), 4)
	cix := geo.BuildCellIndex(cells, pts)
	se, err := sim.NewSharded(3, len(cells), 0.004, workers)
	if err != nil {
		t.Fatal(err)
	}
	ix := BuildNeighborIndex(pts, ranges)
	radio, err := NewRadio(se, ix, cix.CellOwners(), latency, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return se, radio, cix, pts
}

// TestRadioLatencyBelowLookaheadRejected: a medium faster than the
// declared lookahead would break the conservative windows.
func TestRadioLatencyBelowLookaheadRejected(t *testing.T) {
	pts, ranges := randomLayout(10, 50, 1)
	cells := geo.Partition(geo.NewField(50, 50), 2)
	cix := geo.BuildCellIndex(cells, pts)
	se, err := sim.NewSharded(1, 2, 0.004, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRadio(se, BuildNeighborIndex(pts, ranges), cix.CellOwners(), 0.001, nil)
	if err == nil {
		t.Fatal("expected error for latency < lookahead")
	}
	var le *sim.LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("error %v is not a *sim.LookaheadError", err)
	}
}

// TestRadioBroadcastDelivers: every neighbour — same cell or not —
// receives exactly one delivery at send time + latency. Deliveries run
// on their receivers' cells, which different workers execute in the
// same window, so the collector is guarded.
func TestRadioBroadcastDelivers(t *testing.T) {
	const latency, msg = 0.004, 7
	var mu sync.Mutex
	got := map[int]int{}
	on := map[int]*sim.Engine{}
	var at []float64
	se, radio, cix, _ := buildRadio(t, 2, latency, func(eng *sim.Engine, src, dst int, m int32) {
		now := eng.Now()
		mu.Lock()
		defer mu.Unlock()
		if src != 0 || m != msg {
			t.Errorf("delivery to %d carries sender %d, message %d", dst, src, m)
		}
		got[dst]++
		on[dst] = eng
		at = append(at, now)
	})
	src := 0
	want := radio.ix.Neighbors(src)
	if len(want) == 0 {
		t.Fatal("source has no neighbours; layout too sparse for the test")
	}
	srcCell := se.Cell(cix.CellOwners()[src])
	srcCell.Engine().At(1.0, func() { radio.Broadcast(src, msg) })
	se.Run(2)
	if len(got) != len(want) {
		t.Fatalf("delivered to %d receivers, want %d", len(got), len(want))
	}
	for _, n := range want {
		if got[int(n)] != 1 {
			t.Fatalf("neighbour %d received %d deliveries, want 1", n, got[int(n)])
		}
	}
	for dst, eng := range on {
		if eng != se.Cell(cix.CellOwners()[dst]).Engine() {
			t.Fatalf("neighbour %d served by another cell's engine", dst)
		}
	}
	for _, ts := range at {
		if ts != 1.0+latency {
			t.Fatalf("delivery at %g, want %g", ts, 1.0+latency)
		}
	}
	st := radio.Stats()
	if st.Broadcasts != 1 || st.Deliveries != uint64(len(want)) {
		t.Fatalf("stats %+v inconsistent with one broadcast to %d receivers", st, len(want))
	}
}

// TestRadioParityAcrossWorkers: a gossip storm over the sharded radio
// must deliver identically at any worker count.
func TestRadioParityAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]uint64, RadioStats) {
		heard := make([]uint64, 200)
		se, radio, cix, _ := buildRadio(t, workers, 0.004, func(_ *sim.Engine, _, dst int, _ int32) { heard[dst]++ })
		for d := 0; d < 200; d++ {
			d := d
			cell := se.Cell(cix.CellOwners()[d])
			var loop func()
			loop = func() {
				radio.Broadcast(d, 0)
				cell.Engine().At(cell.Engine().Now()+(0.05+cell.Engine().Rand().Float64()*0.01), loop)
			}
			cell.Engine().At(float64(d%7)*0.001, loop)
		}
		se.Run(1)
		return heard, radio.Stats()
	}
	baseHeard, baseStats := run(1)
	if baseStats.Deliveries == 0 || baseStats.CrossEvents == 0 {
		t.Fatalf("storm produced no cross-cell traffic: %+v", baseStats)
	}
	for _, w := range []int{2, 8} {
		heard, st := run(w)
		if !reflect.DeepEqual(heard, baseHeard) {
			t.Fatalf("workers=%d: delivery counts diverged", w)
		}
		if st != baseStats {
			t.Fatalf("workers=%d: stats %+v != %+v", w, st, baseStats)
		}
	}
}

// BenchmarkBuildNeighborIndex builds the index for the mega-swarm's own
// 10⁴-device layout (the benchmark ledger's netsim.neighbor_build_ms).
func BenchmarkBuildNeighborIndex(b *testing.B) {
	pts, ranges := swarmLayout(10000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildNeighborIndex(pts, ranges)
	}
}

// BenchmarkNeighborBuild records what the binned index buys over the
// per-transmission all-devices scan at 10⁴-device scale (the benchmark
// ledger tracks the indexed build as netsim.neighbor_build_ms).
func BenchmarkNeighborBuild(b *testing.B) {
	pts, ranges := randomLayout(10000, 1000, 5)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildNeighborIndex(pts, ranges)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildNeighborsNaive(pts, ranges)
		}
	})
}
