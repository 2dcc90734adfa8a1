// Package apps defines the HiveMind benchmark suite: the ten
// single-phase edge applications S1–S10 of §2.1 (face recognition, tree
// recognition, drone detection, obstacle avoidance, people
// deduplication, maze traversal, weather analytics, soil analytics,
// text recognition, SLAM), as calibrated workload profiles consumed by
// the simulator.
//
// Calibration note: per-task service times and data sizes are
// behavioural constants chosen to reproduce the paper's relative
// results — which jobs are compute-heavy vs light, which saturate an
// on-board core, which ship large sensor payloads — not measurements of
// the original TensorFlow/FaceNet binaries. The inline comments state
// the paper observation each profile must satisfy.
package apps

import "fmt"

// ID names a benchmark application.
type ID string

// The benchmark suite.
const (
	S1FaceRecognition ID = "S1"
	S2TreeRecognition ID = "S2"
	S3DroneDetection  ID = "S3"
	S4ObstacleAvoid   ID = "S4"
	S5Deduplication   ID = "S5"
	S6Maze            ID = "S6"
	S7Weather         ID = "S7"
	S8SoilAnalytics   ID = "S8"
	S9TextRecognition ID = "S9"
	S10SLAM           ID = "S10"
)

// Profile describes one application's per-task resource behaviour. A
// "task" is the unit the paper measures, e.g. recognising faces in a
// one-second frame batch.
type Profile struct {
	ID   ID
	Name string

	// CloudExecS is the single-core service time of one task on a
	// cluster core.
	CloudExecS float64
	// EdgeExecS is the service time of one task on the device's
	// on-board core.
	EdgeExecS float64
	// Parallelism is the useful intra-task fan-out when split across
	// serverless functions (§3.2); 1 = no intra-task parallelism.
	Parallelism int
	// InputMB is the sensor payload one task consumes (must reach
	// wherever the task runs).
	InputMB float64
	// OutputMB is the result size shipped onward.
	OutputMB float64
	// TaskRatePerDevice is tasks/s each device generates at default
	// load.
	TaskRatePerDevice float64
	// MemGB is per-function memory.
	MemGB float64
	// ExecCV is the intrinsic coefficient of variation of service time
	// (before serverless interference is layered on).
	ExecCV float64
	// PinEdge marks tasks that must run on-board regardless of placement
	// search (obstacle avoidance "always runs on-board to avoid
	// catastrophic failures due to long network delays", §2.1).
	PinEdge bool
}

// EdgeUtilization returns the offered load on a single on-board core at
// the default task rate (>1 means an overloaded device).
func (p Profile) EdgeUtilization() float64 {
	return p.TaskRatePerDevice * p.EdgeExecS
}

// String implements fmt.Stringer.
func (p Profile) String() string {
	return fmt.Sprintf("%s:%s", p.ID, p.Name)
}

// All returns the benchmark suite in S1..S10 order.
func All() []Profile {
	return []Profile{
		{
			// Heavy CNN on frame batches: cloud wins big, edge device
			// saturates (distributed violin reaches multi-second tails,
			// Fig. 4a/11).
			ID: S1FaceRecognition, Name: "Face Recognition (FaceNet)",
			CloudExecS: 0.80, EdgeExecS: 3.5, Parallelism: 8,
			InputMB: 8, OutputMB: 0.05,
			TaskRatePerDevice: 1.0, MemGB: 2, ExecCV: 0.15,
		},
		{
			ID: S2TreeRecognition, Name: "Tree Recognition (Model Zoo CNN)",
			CloudExecS: 0.70, EdgeExecS: 3.0, Parallelism: 8,
			InputMB: 8, OutputMB: 0.05,
			TaskRatePerDevice: 1.0, MemGB: 2, ExecCV: 0.15,
		},
		{
			// Light SVM on small tagged crops: "behaves comparably on the
			// cloud and edge due to modest resource needs" (§2.3).
			ID: S3DroneDetection, Name: "Drone Detection (SVM)",
			CloudExecS: 0.10, EdgeExecS: 0.18, Parallelism: 2,
			InputMB: 0.5, OutputMB: 0.01,
			TaskRatePerDevice: 2.0, MemGB: 0.5, ExecCV: 0.10,
		},
		{
			// Must stay on-board; "achieves better performance at the
			// edge, by avoiding data transfers and adjusting its route
			// in-place" (§2.3).
			ID: S4ObstacleAvoid, Name: "Obstacle Avoidance (ardrone-autonomy)",
			CloudExecS: 0.06, EdgeExecS: 0.10, Parallelism: 1,
			InputMB: 0.4, OutputMB: 0.005,
			TaskRatePerDevice: 4.0, MemGB: 0.3, ExecCV: 0.10, PinEdge: true,
		},
		{
			// FaceNet embedding comparison across sightings.
			ID: S5Deduplication, Name: "People Deduplication (FaceNet)",
			CloudExecS: 1.0, EdgeExecS: 4.5, Parallelism: 8,
			InputMB: 4, OutputMB: 0.1,
			TaskRatePerDevice: 0.5, MemGB: 2, ExecCV: 0.18,
		},
		{
			// Few tasks/s ("drones move slowly in the maze") but each is
			// compute-heavy, so instantiation is <20% of latency
			// (Fig. 6b) and intra-task concurrency gains are modest
			// (Fig. 5a).
			ID: S6Maze, Name: "Maze Traversal (Wall Follower)",
			CloudExecS: 1.6, EdgeExecS: 4.0, Parallelism: 2,
			InputMB: 0.3, OutputMB: 0.01,
			TaskRatePerDevice: 0.2, MemGB: 0.5, ExecCV: 0.12,
		},
		{
			// Tiny sensor readings, trivial compute: serverless
			// instantiation dominates (>40% of latency, Fig. 6b) and the
			// cloud/edge gap nearly vanishes (§2.3).
			ID: S7Weather, Name: "Weather Analytics",
			CloudExecS: 0.04, EdgeExecS: 0.06, Parallelism: 1,
			InputMB: 0.05, OutputMB: 0.01,
			TaskRatePerDevice: 1.0, MemGB: 0.2, ExecCV: 0.08,
		},
		{
			ID: S8SoilAnalytics, Name: "Soil Analytics",
			CloudExecS: 0.35, EdgeExecS: 1.4, Parallelism: 4,
			InputMB: 2, OutputMB: 0.02,
			TaskRatePerDevice: 1.0, MemGB: 1, ExecCV: 0.12,
		},
		{
			// "For jobs like image-to-text recognition and SLAM, the
			// improvement [from intra-task parallelism] is dramatic"
			// (§3.2): wide fan-out, CPU- and memory-intensive.
			ID: S9TextRecognition, Name: "Text Recognition (OCR)",
			CloudExecS: 1.2, EdgeExecS: 5.0, Parallelism: 16,
			InputMB: 4, OutputMB: 0.02,
			TaskRatePerDevice: 0.8, MemGB: 1.5, ExecCV: 0.15,
		},
		{
			ID: S10SLAM, Name: "SLAM (ORB-SLAM)",
			CloudExecS: 2.0, EdgeExecS: 7.0, Parallelism: 16,
			InputMB: 6, OutputMB: 0.5,
			TaskRatePerDevice: 0.6, MemGB: 3, ExecCV: 0.20,
		},
	}
}

// ByID returns the profile for an id, or false.
func ByID(id ID) (Profile, bool) {
	for _, p := range All() {
		if p.ID == id {
			return p, true
		}
	}
	return Profile{}, false
}
