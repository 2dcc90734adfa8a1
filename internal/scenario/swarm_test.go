package scenario

import (
	"errors"
	"reflect"
	"testing"

	"hivemind/internal/sim"
)

// swarmTestConfig is a mid-size mission with real cross-cell traffic
// and injected deaths — small enough for CI, big enough that every
// mechanism (gossip, localization hops, chaos, windows) engages.
func swarmTestConfig() SwarmConfig {
	return SwarmConfig{
		Devices:   300,
		FieldM:    170,
		Cells:     6,
		Seed:      42,
		DurationS: 8,
		FailProb:  0.01,
	}
}

// TestSwarmParityAcrossShards is the tentpole guarantee: the Shards
// knob must not change one bit of the result — including the chaos
// deaths, the RNG-jittered beacon times, the noisy range observations
// and the executive's own window accounting.
func TestSwarmParityAcrossShards(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.Shards = 1
	base, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Failed == 0 {
		t.Fatal("no injected deaths; chaos-under-sharding not exercised")
	}
	if base.Radio.CrossEvents == 0 {
		t.Fatal("no cross-cell traffic; parity test vacuous")
	}
	if base.CoveredFrac == 0 {
		t.Fatal("gossip never spread")
	}
	for _, w := range []int{2, 8} {
		cfg.Shards = w
		got, err := RunSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from shards=1:\n got: %+v\nwant: %+v", w, got, base)
		}
	}
}

// TestSwarmLocalizationConverges: confidence-weighted solving against
// anchor-rooted observations must beat the random initial estimates by
// a wide margin.
func TestSwarmLocalizationConverges(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.FailProb = 0
	cfg.DurationS = 15
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocErrStartM <= 0 {
		t.Fatal("no initial error recorded")
	}
	if res.LocErrMeanM >= 0.7*res.LocErrStartM {
		t.Fatalf("localization did not converge: %.1fm start → %.1fm end", res.LocErrStartM, res.LocErrMeanM)
	}
	// Confidence reached the short-range majority: tiny robots only hear
	// nearby peers, so their error can only drop via multi-hop anchors.
	for _, c := range res.Classes {
		if c.Name == "tinybot" && c.LocErrMeanM >= res.LocErrStartM {
			t.Fatalf("tinybot class never localized: %.1fm", c.LocErrMeanM)
		}
	}
}

// TestSwarmRumorCoverage: with no deaths and enough time, gossip
// reaches (nearly) the whole connected fleet and the spread percentiles
// are ordered.
func TestSwarmRumorCoverage(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.FailProb = 0
	cfg.DurationS = 20
	res, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoveredFrac < 0.8 {
		t.Fatalf("only %.0f%% of the fleet heard every rumor", res.CoveredFrac*100)
	}
	if res.SpreadP50S <= 0 || res.SpreadP99S < res.SpreadP50S {
		t.Fatalf("spread percentiles inconsistent: p50=%g p99=%g", res.SpreadP50S, res.SpreadP99S)
	}
}

// TestSwarmConfigErrors: misconfigured windows surface the executive's
// typed error; oversized rumor sets are rejected.
func TestSwarmConfigErrors(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.RadioLatencyS = 0.002
	cfg.LookaheadS = 0.004
	_, err := RunSwarm(cfg)
	var le *sim.LookaheadError
	if !errors.As(err, &le) {
		t.Fatalf("lookahead > latency: got %v, want *sim.LookaheadError", err)
	}

	cfg = swarmTestConfig()
	cfg.LookaheadS = -1
	_, err = RunSwarm(cfg)
	if !errors.As(err, &le) {
		t.Fatalf("negative lookahead: got %v, want *sim.LookaheadError", err)
	}

	cfg = swarmTestConfig()
	cfg.Rumors = 65
	if _, err := RunSwarm(cfg); err == nil {
		t.Fatal("65 rumors accepted; gossip mask is 64-bit")
	}
}

// TestSwarmMissionAllocCeiling bounds a 2 000-device mission's
// allocations per device. Devices live in one arena, mission loops and
// radio deliveries are record events and the neighbour and cell lists
// are flat, so what is left is each device's battery hook and per-cell
// set-up. The count is deterministic: 1.40 per device when the ceiling
// was set.
func TestSwarmMissionAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const devices, ceiling = 2000, 4
	cfg := SwarmConfig{Devices: devices, DurationS: 2, FailProb: 0.001, Shards: 2, Seed: 5}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := RunSwarm(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if perDev := allocs / devices; perDev > ceiling {
		t.Fatalf("mission allocates %.2f per device, ceiling %d", perDev, ceiling)
	}
}

// TestSwarmAllocsIndependentOfDuration: simulated time costs no
// allocations, so an 8 s mission allocates within 1 % of a 2 s one.
func TestSwarmAllocsIndependentOfDuration(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	mission := func(durationS float64) float64 {
		cfg := SwarmConfig{Devices: 2000, DurationS: durationS, FailProb: 0.001, Shards: 2, Seed: 5}
		return testing.AllocsPerRun(1, func() {
			if _, err := RunSwarm(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := mission(2), mission(8)
	if long > 1.01*short {
		t.Fatalf("8 s mission allocates %.0f, 2 s one %.0f: simulated time allocates", long, short)
	}
}

// TestSwarmSnapshotSlotsParityAcrossShards: beacons faster than twice
// the radio latency make each device rotate several payload snapshot
// slots, each read by receivers on other cells while the sender runs
// on. Results must still not depend on the worker count (and, under
// -race, no slot may be rewritten while a receiver reads it).
func TestSwarmSnapshotSlotsParityAcrossShards(t *testing.T) {
	cfg := swarmTestConfig()
	cfg.DurationS = 1
	cfg.Mix = DefaultMix()
	for i := range cfg.Mix {
		cfg.Mix[i].BeaconPeriodS = 0.006 * float64(i+1)
	}
	cfg.Shards = 1
	base, err := RunSwarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Radio.CrossEvents == 0 {
		t.Fatal("no cross-cell traffic; parity test vacuous")
	}
	for _, w := range []int{2, 8} {
		cfg.Shards = w
		got, err := RunSwarm(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("shards=%d diverged from shards=1:\n got: %+v\nwant: %+v", w, got, base)
		}
	}
}
