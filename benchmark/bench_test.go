package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0, 10}, {10, 10}, {50, 50}, {51, 60}, {90, 90}, {91, 100}, {99, 100}, {100, 100}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d", got)
	}
	if got := percentile([]int64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %d", got)
	}
}

func TestBand(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(i + 1) // 1..100
	}
	for _, tc := range []struct{ lo, hi, want float64 }{
		{40, 60, 50.5}, // values 41..60
		{85, 95, 90.5}, // values 86..95
		{0, 100, 50.5},
	} {
		if got := band(v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("band(%v, %v) = %v, want %v", tc.lo, tc.hi, got, tc.want)
		}
	}
	// Too few samples for the band to hold one: the nearest sample.
	if got := band([]int64{7, 9}, 85, 95); got != 9 {
		t.Errorf("band of two samples = %v, want 9", got)
	}
	if got := band(nil, 40, 60); got != 0 {
		t.Errorf("band of nothing = %v", got)
	}
	// Two clusters with the median rank at the gap: one sample changing
	// sides moves the single rank across the gap, the band barely.
	cluster := func(lows int) []int64 {
		c := make([]int64, 100)
		for i := range c {
			c[i] = 50
			if i < lows {
				c[i] = 10
			}
		}
		return c
	}
	if a, b := percentile(cluster(50), 50), percentile(cluster(49), 50); a != 10 || b != 50 {
		t.Fatalf("single rank: %d then %d, want 10 then 50", a, b)
	}
	if a, b := band(cluster(50), 40, 60), band(cluster(49), 40, 60); a != 30 || b != 32 {
		t.Errorf("band: %v then %v, want 30 then 32", a, b)
	}
}

// The values are what Python's statistics.quantiles(v, n=4) returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestGenerationIsSeeded(t *testing.T) {
	a, b, other := newPayloadPool(7), newPayloadPool(7), newPayloadPool(8)
	for _, size := range []int{64, 4 << 10, 64 << 10} {
		for id := uint64(0); id < 50; id++ {
			pa := a.fill(make([]byte, maxPayload), id, size)
			pb := b.fill(make([]byte, maxPayload), id, size)
			if !bytes.Equal(pa, pb) {
				t.Fatalf("payload %d/%d differs between two pools of one seed", id, size)
			}
			if opOf(pa) != id || len(pa) != size {
				t.Fatalf("payload %d/%d: id %d, len %d", id, size, opOf(pa), len(pa))
			}
			if bytes.Equal(pa, other.fill(make([]byte, maxPayload), id, size)) {
				t.Fatalf("payload %d/%d is the same under another seed", id, size)
			}
		}
	}

	s1 := makeSchedule(7, mixedRate, time.Second)
	s2 := makeSchedule(7, mixedRate, time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("schedule differs between two draws of one seed")
	}
	if reflect.DeepEqual(s1, makeSchedule(8, mixedRate, time.Second)) {
		t.Fatal("schedule is the same under another seed")
	}
	if n := len(s1); n < mixedRate*8/10 || n > mixedRate*12/10 {
		t.Fatalf("%d arrivals in 1 s at %d/s", n, mixedRate)
	}
	repeats, sizes := 0, map[int]int{}
	for i, a := range s1 {
		sizes[a.size]++
		if i > 0 && a.due < s1[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if i > 0 && a.id == s1[i-1].id {
			repeats++
			if a.due != s1[i-1].due || a.size != s1[i-1].size || a.id&noTrace == 0 {
				t.Fatalf("repeat %d does not mirror its predecessor: %+v after %+v", i, a, s1[i-1])
			}
		}
	}
	if share := float64(repeats) / float64(len(s1)); share < 0.2 || share > 0.3 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
	if len(sizes) != len(mixedSizes) || sizes[64] < sizes[4<<10] || sizes[4<<10] < sizes[64<<10] {
		t.Errorf("size mix %v", sizes)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// client 0..100 holds ingress 10..40 and 60..90 (POST, then GET).
	// The dispatch (rpc.link 20..70) outlives the POST that started it;
	// under it, gateway 25..65 holds two overlapping children: fn 30..50
	// and track 45..55.
	spans := []span{
		{layerClient, 1, 0, 100},
		{layerIngress, 1, 10, 40},
		{layerIngress, 1, 60, 90},
		{layerLink, 1, 20, 70},
		{layerGateway, 1, 25, 65},
		{layerFn, 1, 30, 50},
		{layerTrack, 1, 45, 55},
	}
	self := selfTimes(spans)
	want := [numLayers]int64{
		layerClient:  20, // 0..10 and 90..100: everything else is covered below
		layerIngress: 30, // 10..20 and 70..90
		layerLink:    10, // 20..25 and 65..70
		layerGateway: 15, // 40 − |30..55|: the overlap 45..50 is subtracted once
		layerFn:      20,
		layerTrack:   10,
	}
	if self != want {
		t.Fatalf("self times %v, want %v", self, want)
	}
	// Siblings that overlap are both charged for the overlap; every
	// other instant of the root is charged to exactly one layer.
	var sum int64
	for _, s := range self {
		sum += s
	}
	if overlap := int64(5); sum != 100+overlap {
		t.Errorf("self times sum to %d, want root 100 + sibling overlap %d", sum, overlap)
	}
	if got := covered([]interval{{5, 15}, {10, 30}, {50, 70}}, 0, 60); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}

	s := summarizeSpans(map[uint64][]span{1: spans, 2: {{layerGateway, 2, 0, 10}}})
	if s.ops != 1 || s.rootP50 != 0.1 || s.selfUS[layerIngress] != 0.03 {
		t.Errorf("summary %+v: the op with no client span must be left out", s)
	}
}

func TestVerdict(t *testing.T) {
	lat := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	thr := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	sum := func(median, spread float64) summary { return summary{Median: median, Spread: spread} }
	for _, tc := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lat, sum(100, 0.02), sum(105, 0.02), "unchanged"},
		{lat, sum(100, 0.02), sum(111, 0.02), "regressed"},
		{lat, sum(100, 0.02), sum(89, 0.02), "improved"},
		{thr, sum(100, 0.02), sum(89, 0.02), "regressed"},
		{thr, sum(100, 0.02), sum(111, 0.02), "improved"},
		{thr, sum(100, 0.02), sum(95, 0.02), "unchanged"},
		{lat, sum(100, 0.12), sum(150, 0.02), "unresolved"},
		{lat, sum(100, 0.02), sum(150, 0.12), "unresolved"},
		{metricDef{Name: "setup_s", Better: "lower", Bound: 0.25}, sum(1, 0.3), sum(1.1, 0.02), "unchanged"},
	} {
		if _, got := verdict(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s %v → %v: %s, want %s", tc.d.Name, tc.a.Median, tc.b.Median, got, tc.want)
		}
	}
	host := fingerprint{CPU: "x", NProc: 2, Commit: "a", Seed: 1}
	other := host
	other.Commit, other.Seed = "b", 2
	if !host.sameHost(other) {
		t.Error("commit and seed must not make two results incomparable")
	}
	other.NProc = 4
	if host.sameHost(other) {
		t.Error("results from hosts with different core counts must be incomparable")
	}
}

// BENCHMARK.json is the contract; the tables in main.go are what the
// program prints. They must say the same thing.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract names 6", len(keys))
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(manifest.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n%+v\ntable:\n%+v", manifest.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(manifest.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the table (%d vs %d entries)", len(manifest.PerLayer), len(perLayer))
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if manifest.Workloads[i].Name != w.name || manifest.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, table has %s", i, manifest.Workloads[i], w.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range concat(endToEnd, perLayer) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// Every workload, for a fraction of a second at 1 % of its warm-up,
// with every correctness check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the live stack and runs simulations")
	}
	start := time.Now()
	for i := range workloads {
		w := &workloads[i]
		res, err := runWorkload(smokeConfig(1, t.TempDir()), w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; v == nil || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 10 s", d)
	}
}

// The traced run of each live workload: span wrappers on every seam,
// the span file, and every layer drive at 1 % of its call count.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the live stack and runs every layer drive")
	}
	for i := range workloads {
		w := &workloads[i]
		if !w.live {
			continue
		}
		c := smokeConfig(1, t.TempDir())
		c.seconds, c.trace = 1, true
		res, err := runWorkload(c, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, the table has %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"bench.traced_ops", "rpc.link_self_us", "runtime.gateway_self_us", "runtime.fn_us", "rpc.ring_echo_ns", "store.ckpt_task_us"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v", w.name, name, res.Metrics[name].Value)
			}
		}
		if share := res.Metrics["bench.trace_path_share"].Value; share < 0.8 || share > 1.2 {
			t.Errorf("%s: layer self times sum to %.2f of the median op", w.name, share)
		}
		if _, err := os.Stat(filepath.Join(c.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.name, err)
		}
	}
}
