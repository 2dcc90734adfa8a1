package learn

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassifierPredictNearest(t *testing.T) {
	c := NewClassifier(2)
	c.Seed(0, []float64{0, 0}, 1)
	c.Seed(1, []float64{10, 10}, 1)
	if got := c.Predict([]float64{1, 1}); got != 0 {
		t.Fatalf("predict = %d", got)
	}
	if got := c.Predict([]float64{9, 9}); got != 1 {
		t.Fatalf("predict = %d", got)
	}
	if len(c.centroids) != 2 {
		t.Fatalf("classes = %d", len(c.centroids))
	}
}

func TestClassifierEmptyPredicts(t *testing.T) {
	c := NewClassifier(3)
	if got := c.Predict([]float64{1, 2, 3}); got != -1 {
		t.Fatalf("empty model predicted %d", got)
	}
}

func TestClassifierUpdateMovesCentroid(t *testing.T) {
	c := NewClassifier(1)
	c.Seed(0, []float64{0}, 1)
	for i := 0; i < 200; i++ {
		c.Update([]float64{4}, 0)
	}
	if got := c.Predict([]float64{3.5}); got != 0 {
		t.Fatal("centroid did not track updates")
	}
	// Centroid should be near 4 now; a fresh class far away.
	c.Update([]float64{-10}, 1)
	if got := c.Predict([]float64{-9}); got != 1 {
		t.Fatal("new class not learned from single update")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := NewClassifier(1)
	a.Seed(0, []float64{0}, 1)
	b := a.Clone()
	for i := 0; i < 100; i++ {
		b.Update([]float64{10}, 0)
	}
	a.Seed(1, []float64{100}, 1)
	if len(b.centroids) != 1 {
		t.Fatal("clone shares class map")
	}
	// a's class-0 centroid must be unmoved.
	if got := a.Predict([]float64{0.2}); got != 0 {
		t.Fatal("original centroid moved by clone updates")
	}
}

func TestInvalidDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewClassifier(0)
}

func TestSeedDimensionMismatchPanics(t *testing.T) {
	c := NewClassifier(2)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	c.Seed(0, []float64{1}, 1)
}

func TestDomainShiftCausesErrors(t *testing.T) {
	domain, model := NewDomain(8, 3.0, 1.6, 1.0)
	rng := rand.New(rand.NewSource(5))
	var wrong, total float64
	for i := 0; i < 2000; i++ {
		label := i % 2
		x := domain.Observe(rng, label)
		if model.Predict(x) != label {
			wrong++
		}
		total++
	}
	errRate := wrong / total
	if errRate < 0.05 {
		t.Fatalf("domain shift too mild: error rate %.3f", errRate)
	}
	if errRate > 0.6 {
		t.Fatalf("domain shift too harsh: error rate %.3f", errRate)
	}
}

func TestFig15ShapeNoneVsSelfVsSwarm(t *testing.T) {
	cfg := DefaultTrial(16, 42)
	none, _ := RunTrial(ModeNone, cfg)
	self, _ := RunTrial(ModeSelf, cfg)
	swarm, _ := RunTrial(ModeSwarm, cfg)

	// Fig. 15 ordering: None < Self < Swarm on correctness; swarm-wide
	// retraining "quickly resolves any remaining false negatives and
	// false positives".
	if !(none.Correct < self.Correct && self.Correct < swarm.Correct) {
		t.Fatalf("ordering broken: none=%.3f self=%.3f swarm=%.3f",
			none.Correct, self.Correct, swarm.Correct)
	}
	if swarm.Correct < 0.97 {
		t.Fatalf("swarm retraining final accuracy %.3f, want ≥0.97", swarm.Correct)
	}
	if none.FalsePositives+none.FalseNegatives < 0.05 {
		t.Fatalf("none mode should show non-trivial errors, got %s", none)
	}
	if swarm.FalsePositives+swarm.FalseNegatives > 0.03 {
		t.Fatalf("swarm errors too high: %s", swarm)
	}
}

func TestSwarmConvergesFasterThanSelf(t *testing.T) {
	cfg := DefaultTrial(16, 7)
	_, selfTraj := RunTrial(ModeSelf, cfg)
	_, swarmTraj := RunTrial(ModeSwarm, cfg)
	// Compare accuracy at an early round: pooled data learns faster.
	round := 2
	if swarmTraj[round].Correct <= selfTraj[round].Correct {
		t.Fatalf("round %d: swarm %.3f not above self %.3f",
			round, swarmTraj[round].Correct, selfTraj[round].Correct)
	}
}

func TestTrajectoryLengthAndMonotoneImprovement(t *testing.T) {
	cfg := DefaultTrial(8, 11)
	_, traj := RunTrial(ModeSwarm, cfg)
	if len(traj) != cfg.Rounds {
		t.Fatalf("trajectory length = %d", len(traj))
	}
	if traj[len(traj)-1].Correct <= traj[0].Correct {
		t.Fatalf("no improvement: first %.3f last %.3f",
			traj[0].Correct, traj[len(traj)-1].Correct)
	}
}

func TestModeStrings(t *testing.T) {
	if ModeNone.String() != "none" || ModeSelf.String() != "self" || ModeSwarm.String() != "swarm" {
		t.Fatal("mode strings")
	}
	a := Accuracy{Correct: 0.9, FalsePositives: 0.06, FalseNegatives: 0.04}
	if a.String() == "" {
		t.Fatal("accuracy string")
	}
}

func TestTrialDeterminism(t *testing.T) {
	cfg := DefaultTrial(8, 99)
	a, _ := RunTrial(ModeSwarm, cfg)
	b, _ := RunTrial(ModeSwarm, cfg)
	if a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// Property: accuracy components always sum to 1 and lie in [0,1].
func TestAccuracyInvariantProperty(t *testing.T) {
	prop := func(seed int64, devRaw uint8) bool {
		cfg := DefaultTrial(int(devRaw%8)+1, seed)
		cfg.Rounds = 3
		for _, mode := range []Mode{ModeNone, ModeSelf, ModeSwarm} {
			a, _ := RunTrial(mode, cfg)
			sum := a.Correct + a.FalsePositives + a.FalseNegatives
			if sum < 0.999 || sum > 1.001 {
				return false
			}
			if a.Correct < 0 || a.Correct > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
