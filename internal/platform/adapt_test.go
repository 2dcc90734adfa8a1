package platform

import (
	"testing"

	"hivemind/internal/apps"
)

// driveAdapter submits tasks round-robin at the profile's rate for
// durationS and counts completed and dropped tasks; switches lists each
// placement the adapter moved to, in order.
func driveAdapter(t *testing.T, a *Adapter, sys *System, p apps.Profile, durationS float64) (completed, dropped int, switches []TierPlacement) {
	t.Helper()
	from := a.current
	rng := sys.Eng.Rand()
	period := 1.0 / p.TaskRatePerDevice
	for _, d := range sys.Fleet {
		d := d
		var submit func()
		submit = func() {
			if sys.Eng.Now() >= durationS {
				return
			}
			a.Submit(d, func(m TaskMetrics) {
				if m.Dropped {
					dropped++
				} else {
					completed++
				}
				if last := len(switches) - 1; (last < 0 && a.current != from) || (last >= 0 && a.current != switches[last]) {
					switches = append(switches, a.current)
				}
			})
			sys.Eng.At(sys.Eng.Now()+period*(0.8+0.4*rng.Float64()), submit)
		}
		sys.Eng.At(rng.Float64()*period, submit)
	}
	sys.Eng.RunUntil(durationS + 30)
	return completed, dropped, switches
}

func TestAdapterLeavesCloudUnderCongestion(t *testing.T) {
	// Saturate the wireless by shrinking it; a cloud-pinned job misses
	// its goal and the adapter walks to hybrid (§4.2 runtime remapping).
	o := Preset(HiveMind, 16, 41)
	o.NetCfg.WirelessBps = 40e6 // 40 MB/s: full offload cannot meet goals
	sys := NewSystem(o)
	face := mustProfile(t, apps.S1FaceRecognition)
	a := NewAdapter(sys, face, 1.0)
	// Force the starting point to cloud to exercise the ladder.
	a.current = TierCloud
	completed, _, switches := driveAdapter(t, a, sys, face, 60)
	if completed == 0 {
		t.Fatal("no completions")
	}
	if a.current == TierCloud {
		t.Fatalf("adapter never left the congested cloud placement (switches: %v)", switches)
	}
	if len(switches) == 0 || switches[0] != TierHybrid {
		t.Fatalf("switches = %v, want the first to go cloud -> hybrid", switches)
	}
}

func TestAdapterLeavesOverloadedEdge(t *testing.T) {
	// A heavy job pinned to the edge sheds tasks and blows its goal; the
	// adapter must offload.
	sys := NewSystem(Preset(HiveMind, 8, 43))
	face := mustProfile(t, apps.S1FaceRecognition)
	a := NewAdapter(sys, face, 1.5)
	a.current = TierEdge
	completed, dropped, _ := driveAdapter(t, a, sys, face, 60)
	if a.current == TierEdge {
		t.Fatalf("adapter stayed on the overloaded edge (completed=%d dropped=%d)", completed, dropped)
	}
}

func TestAdapterStableWhenGoalMet(t *testing.T) {
	sys := NewSystem(Preset(HiveMind, 8, 47))
	weather := mustProfile(t, apps.S7Weather)
	a := NewAdapter(sys, weather, 2.0) // generous goal
	if _, _, switches := driveAdapter(t, a, sys, weather, 40); len(switches) != 0 {
		t.Fatalf("adapter churned despite meeting its goal: %v", switches)
	}
	if a.current != sys.PlaceFor(weather) {
		t.Fatal("placement drifted from the static decision")
	}
}

func TestAdapterNoGoalNeverAdapts(t *testing.T) {
	sys := NewSystem(Preset(HiveMind, 4, 49))
	face := mustProfile(t, apps.S1FaceRecognition)
	a := NewAdapter(sys, face, 0)
	if _, _, switches := driveAdapter(t, a, sys, face, 20); len(switches) != 0 {
		t.Fatal("goal-less adapter switched")
	}
}
