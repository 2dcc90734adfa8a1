package apps

import "testing"

func TestSuiteHasTenApps(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("suite size = %d", len(all))
	}
	want := []ID{S1FaceRecognition, S2TreeRecognition, S3DroneDetection, S4ObstacleAvoid,
		S5Deduplication, S6Maze, S7Weather, S8SoilAnalytics, S9TextRecognition, S10SLAM}
	for i, p := range all {
		if p.ID != want[i] {
			t.Fatalf("position %d: %s, want %s", i, p.ID, want[i])
		}
	}
}

func TestProfilesAreSane(t *testing.T) {
	for _, p := range All() {
		if p.CloudExecS <= 0 || p.EdgeExecS <= 0 {
			t.Fatalf("%s: non-positive exec times", p.ID)
		}
		if p.EdgeExecS <= p.CloudExecS {
			t.Fatalf("%s: edge (%.2fs) must be slower than one cloud core (%.2fs)", p.ID, p.EdgeExecS, p.CloudExecS)
		}
		if p.Parallelism < 1 {
			t.Fatalf("%s: parallelism %d", p.ID, p.Parallelism)
		}
		if p.InputMB <= 0 || p.OutputMB <= 0 || p.TaskRatePerDevice <= 0 || p.MemGB <= 0 {
			t.Fatalf("%s: non-positive sizes/rates", p.ID)
		}
		if p.OutputMB >= p.InputMB {
			t.Fatalf("%s: output %g >= input %g (results must be smaller than sensor data)", p.ID, p.OutputMB, p.InputMB)
		}
		if p.ExecCV <= 0 || p.ExecCV > 1 {
			t.Fatalf("%s: CV %g", p.ID, p.ExecCV)
		}
		if p.String() == "" {
			t.Fatalf("%s: empty string", p.ID)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	p, ok := ByID(S6Maze)
	if !ok || p.Name == "" {
		t.Fatal("maze lookup failed")
	}
	if _, ok := ByID("S99"); ok {
		t.Fatal("bogus id found")
	}
	if len(All()) != 10 {
		t.Fatalf("%d benchmarks, want 10", len(All()))
	}
}

func TestPaperShapeConstraints(t *testing.T) {
	get := func(id ID) Profile {
		p, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		return p
	}
	// §2.1: obstacle avoidance always runs on-board.
	if !get(S4ObstacleAvoid).PinEdge {
		t.Fatal("S4 must be pinned to the edge")
	}
	// §2.3: heavy recognition jobs overload a single on-board core
	// (drives the distributed-edge latency blowup and battery drain).
	for _, id := range []ID{S1FaceRecognition, S2TreeRecognition, S5Deduplication, S9TextRecognition, S10SLAM} {
		if u := get(id).EdgeUtilization(); u <= 1 {
			t.Fatalf("%s edge utilization %g, want >1 (overloaded)", id, u)
		}
	}
	// §2.3: drone detection, obstacle avoidance and weather analytics
	// are comfortable on-board.
	for _, id := range []ID{S3DroneDetection, S4ObstacleAvoid, S7Weather} {
		if u := get(id).EdgeUtilization(); u >= 0.8 {
			t.Fatalf("%s edge utilization %g, want <0.8 (stable)", id, u)
		}
	}
	// §3.2: maze/weather benefit least from intra-task parallelism;
	// text recognition and SLAM have the widest fan-out.
	if get(S6Maze).Parallelism > 2 || get(S7Weather).Parallelism > 1 {
		t.Fatal("maze/weather parallelism too high")
	}
	if get(S9TextRecognition).Parallelism < 8 || get(S10SLAM).Parallelism < 8 {
		t.Fatal("OCR/SLAM fan-out too low")
	}
	// Fig. 6b: weather tasks are so short that instantiation dominates;
	// maze tasks so long that it is amortised. Proxy: exec-time ordering.
	if get(S7Weather).CloudExecS > 0.1 {
		t.Fatal("weather tasks should be very short")
	}
	if get(S6Maze).CloudExecS < 1.0 {
		t.Fatal("maze tasks should be long")
	}
	// §2.2: offered network load at default settings must not saturate
	// the 216.75 MB/s wireless aggregate for a 16-drone swarm on any
	// single job ("services are not running at max load here").
	for _, p := range All() {
		load := p.InputMB * p.TaskRatePerDevice * 16
		if load > 216 {
			t.Fatalf("%s offers %g MB/s from 16 drones (saturates wireless)", p.ID, load)
		}
	}
}
