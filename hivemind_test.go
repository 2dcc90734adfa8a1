package hivemind

import (
	"testing"

	"hivemind/internal/platform"
)

func TestNewSwarmDefaults(t *testing.T) {
	sw := NewSwarm(SwarmSpec{System: SystemHiveMind})
	if got := len(sw.System().Fleet); got != 16 {
		t.Fatalf("default fleet = %d", got)
	}
	if sw.Options().Seed != 1 {
		t.Fatalf("default seed = %d", sw.Options().Seed)
	}
}

func TestRunJobFacade(t *testing.T) {
	sw := NewSwarm(SwarmSpec{Devices: 8, System: SystemHiveMind, Seed: 3})
	res, err := sw.RunJob(JobWeather, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Latency.N() == 0 {
		t.Fatalf("no completions: %+v", res)
	}
	if _, err := sw.RunJob("S99", 20); err == nil {
		t.Fatal("unknown job accepted")
	}
}

func TestRunMissionFacade(t *testing.T) {
	sw := NewSwarm(SwarmSpec{Devices: 8, System: SystemHiveMind, Seed: 3})
	r := sw.RunMission(MissionStationaryItems)
	if r.Found == 0 {
		t.Fatalf("mission found nothing: %s", r)
	}
}

func TestRoverSwarm(t *testing.T) {
	sw := NewSwarm(SwarmSpec{Devices: 14, System: SystemHiveMind, Rovers: true, Seed: 5})
	if kind := sw.Options().DeviceCfg.Kind.String(); kind != "rover" {
		t.Fatalf("device kind = %s", kind)
	}
	r := sw.RunMission(MissionTreasureHunt)
	if !r.Completed {
		t.Fatalf("treasure hunt incomplete: %s", r)
	}
}

func TestJobsList(t *testing.T) {
	if len(Jobs()) != 10 {
		t.Fatalf("jobs = %d", len(Jobs()))
	}
}

func TestDSLAndSynthesisFacade(t *testing.T) {
	g, err := ParseDSL(`
TaskGraph(list=['collect','recognize'])
Task(collect, None, frames, 'code/collect', childTask=['recognize'])
Task(recognize, frames, stats, 'code/recognize')
`)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := ExplorePlacements(g, map[string]TaskCost{
		"collect":   {CloudExecS: 0.01, EdgeExecS: 0.01, Parallelism: 1, OutputMB: 8, RatePerDev: 1, Sensor: true},
		"recognize": {CloudExecS: 0.8, EdgeExecS: 3.5, Parallelism: 8, InputMB: 8, OutputMB: 0.05, RatePerDev: 1},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 { // collect pinned edge; recognize either side
		t.Fatalf("candidates = %d", len(cands))
	}
	if b := cands[0].Bindings; len(b) != 1 || b[0].From != "collect" || b[0].To != "recognize" {
		t.Fatalf("bindings = %v, want the one collect -> recognize edge", b)
	}
}

func TestLearningFacade(t *testing.T) {
	none, traj := RunLearningTrial(LearnNone, 8, 9)
	swarm, _ := RunLearningTrial(LearnSwarm, 8, 9)
	if len(traj) == 0 {
		t.Fatal("no trajectory")
	}
	if swarm.Correct <= none.Correct {
		t.Fatalf("swarm %.3f not above none %.3f", swarm.Correct, none.Correct)
	}
}

func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) < 20 {
		t.Fatalf("experiments = %d", len(Experiments()))
	}
	rep, err := RunExperiment("ubench-rpc", 1, true)
	if err != nil || rep == nil {
		t.Fatalf("run failed: %v", err)
	}
	if rep.Value("rtt64_us") == 0 {
		t.Fatal("missing finding")
	}
	if _, err := RunExperiment("nope", 1, true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAdapterFacade(t *testing.T) {
	sw := NewSwarm(SwarmSpec{Devices: 4, System: SystemHiveMind, Seed: 3})
	a, err := sw.NewAdapter(JobFaceRecognition, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	a.Submit(sw.System().Fleet[0], func(m platform.TaskMetrics) { done = true })
	sw.System().Eng.RunUntil(30)
	if !done {
		t.Fatal("adapted task did not complete")
	}
	if _, err := sw.NewAdapter("S99", 1); err == nil {
		t.Fatal("unknown job accepted")
	}
}
