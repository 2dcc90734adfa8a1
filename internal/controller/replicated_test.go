package controller

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hivemind/internal/chaos"
	"hivemind/internal/geo"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
)

// fastReplicaConfig shrinks the election timescales so tests settle in
// tens of milliseconds.
func fastReplicaConfig(id, replicas int, seed int64) ReplicaConfig {
	cfg := DefaultReplicaConfig(id, replicas, seed)
	cfg.ElectionTimeoutMin = 40 * time.Millisecond
	cfg.ElectionTimeoutMax = 80 * time.Millisecond
	cfg.LeaseInterval = 15 * time.Millisecond
	cfg.VoteTimeout = 50 * time.Millisecond
	return cfg
}

// cluster is a test replica set on real TCP listeners.
type cluster struct {
	replicas []*Replica
	addrs    []string
}

// startCluster boots n replicas with inter-replica links and a shared
// monitor. mutate tweaks each config before the replica is built.
func startCluster(t *testing.T, n int, seed int64, mon *metrics.Registry, mutate func(*ReplicaConfig)) *cluster {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	c := &cluster{addrs: addrs}
	for i := 0; i < n; i++ {
		cfg := fastReplicaConfig(i, n, seed)
		if mutate != nil {
			mutate(&cfg)
		}
		peers := make(map[int]func() (net.Conn, error), n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			addr := addrs[j]
			peers[j] = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		}
		r := NewReplica(cfg, peers, mon)
		c.replicas = append(c.replicas, r)
		go r.Server().Serve(lns[i])
	}
	t.Cleanup(func() {
		for _, r := range c.replicas {
			r.Kill()
		}
	})
	for _, r := range c.replicas {
		r.Start()
	}
	return c
}

// waitLeader polls until exactly one live replica is leader, returning
// it.
func (c *cluster) waitLeader(t *testing.T, timeout time.Duration) *Replica {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var leaders []*Replica
		for _, r := range c.replicas {
			if r.State() == Leader {
				leaders = append(leaders, r)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no single leader within %v", timeout)
	return nil
}

func TestReplicaClusterElectsSingleLeader(t *testing.T) {
	mon := metrics.NewRegistry()
	c := startCluster(t, 3, 7, mon, nil)
	leader := c.waitLeader(t, 3*time.Second)

	if mon.Counter(EventElection) < 1 {
		t.Fatalf("expected at least one election event, got %g", mon.Counter(EventElection))
	}
	// Followers learn the leader through leases.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		agreed := 0
		for _, r := range c.replicas {
			if id, _ := leaderOf(r); id == leader.cfg.ID {
				agreed++
			}
		}
		if agreed == len(c.replicas) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("followers never agreed on the leader")
}

func TestReplicaFailoverPromotesStandbyWithinBound(t *testing.T) {
	mon := metrics.NewRegistry()
	c := startCluster(t, 3, 11, mon, nil)
	old := c.waitLeader(t, 3*time.Second)

	// Let at least one lease land on the standbys so the promotion is
	// measured as a failover, then crash the primary.
	time.Sleep(100 * time.Millisecond)
	old.Kill()

	deadline := time.Now().Add(3 * time.Second)
	var next *Replica
	for time.Now().Before(deadline) {
		for _, r := range c.replicas {
			if r != old && r.State() == Leader {
				next = r
			}
		}
		if next != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if next == nil {
		t.Fatal("no standby took over")
	}
	if got := mon.Counter(EventFailover); got < 1 {
		t.Fatalf("failovers = %g, want >= 1", got)
	}
	lat := mon.Histogram(SampleFailoverLatency)
	if lat.N() < 1 {
		t.Fatal("no failover latency observation recorded")
	}
	// Unavailability is bounded by lease staleness detection plus one
	// election round: ~ElectionTimeoutMax + vote RTTs. Allow generous
	// slack for CI scheduling.
	cfg := fastReplicaConfig(0, 3, 0)
	bound := (2*cfg.ElectionTimeoutMax + 4*cfg.VoteTimeout).Seconds()
	if lat.Max() > bound {
		t.Fatalf("failover latency %.3fs exceeds bound %.3fs", lat.Max(), bound)
	}
}

func TestReplicaReplicatesTaskTable(t *testing.T) {
	c := startCluster(t, 3, 13, nil, nil)
	leader := c.waitLeader(t, 3*time.Second)
	leader.TaskStarted("task-9", "m.pipeline")
	leader.TaskStep("task-9", 2)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		replicated := 0
		for _, r := range c.replicas {
			if tr, ok := r.Tasks()["task-9"]; ok && tr.Method == "m.pipeline" && tr.Step == 2 {
				replicated++
			}
		}
		if replicated == len(c.replicas) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("task table never replicated to all standbys")
}

func TestReplicaMembershipFailureTriggersLiveRepartition(t *testing.T) {
	mon := metrics.NewRegistry()
	c := startCluster(t, 3, 17, mon, func(cfg *ReplicaConfig) {
		cfg.HeartbeatTimeout = 150 * time.Millisecond
		cfg.CheckPeriod = 30 * time.Millisecond
	})
	c.waitLeader(t, 3*time.Second)

	fc := rpc.DialFailover(c.addrs, rpc.FailoverOptions{CallTimeout: 200 * time.Millisecond})
	defer fc.Close()
	field := geo.Rect{X0: 0, Y0: 0, X1: 2, Y1: 1}
	regions := geo.Partition(field, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	devs := make([]*memberClient, 2)
	for i := range devs {
		devs[i] = &memberClient{id: i, fc: fc}
		if err := devs[i].Register(ctx, regions[i]); err != nil {
			t.Fatalf("register device %d: %v", i, err)
		}
	}

	// Device 0 goes silent; device 1 keeps beating and should inherit
	// the orphaned region on a post-repartition beat.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				bctx, bcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
				devs[1].Beat(bctx)
				bcancel()
			}
		}
	}()

	// Device 0's failure repartitions the field: device 1 gains its
	// region and the primary counts the route update.
	for deadline := time.Now().Add(5 * time.Second); mon.Counter(EventRouteUpdate) < 1; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no repartition after silencing device 0")
		}
	}
	if mon.Counter(EventHeartbeatMissed) < 1 || mon.Counter(EventDeviceFailure) < 1 {
		t.Fatalf("missed/failure counters not incremented: %g/%g",
			mon.Counter(EventHeartbeatMissed), mon.Counter(EventDeviceFailure))
	}

	want := field.Area()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		got := devs[1].Region().Area()
		if got > want*0.999 && got < want*1.001 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("survivor region area %.3f never grew to the full field %.3f",
		devs[1].Region().Area(), want)
}

// A registration the primary had not yet replicated dies with it. The
// device's next Beat gets "unknown device" from the new primary and
// must transparently re-register with its last route, so membership
// self-heals instead of dropping the device forever.
func TestReplicaBeatReRegistersAfterFailoverLostRegistration(t *testing.T) {
	c := startCluster(t, 3, 29, metrics.NewRegistry(), nil)
	old := c.waitLeader(t, 3*time.Second)

	fc := rpc.DialFailover(c.addrs, rpc.FailoverOptions{CallTimeout: 500 * time.Millisecond})
	defer fc.Close()
	region := geo.Rect{X0: 0, Y0: 0, X1: 1, Y1: 1}
	mc := &memberClient{id: 4, fc: fc}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := mc.Register(ctx, region); err != nil {
		t.Fatalf("register: %v", err)
	}
	// Kill the primary immediately: with high probability the lease
	// carrying the registration never went out, and either way the new
	// primary must end up knowing the device after its next beats.
	old.Kill()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		bctx, bcancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		mc.Beat(bctx)
		bcancel()
		for _, r := range c.replicas {
			if r != old && r.State() == Leader {
				if m, ok := member(r, 4); ok && m.Region == region && !m.Failed {
					return
				}
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("device never re-established itself on the new primary")
}

func TestReplicaFaultHookKillsPrimary(t *testing.T) {
	mon := metrics.NewRegistry()
	inj := chaos.NewInjector(23, chaos.Config{})
	c := startCluster(t, 3, 23, mon, func(cfg *ReplicaConfig) {
		cfg.Fault = inj
	})
	old := c.waitLeader(t, 3*time.Second)
	time.Sleep(60 * time.Millisecond) // let a lease land on the standbys

	// Arm the scheduled kill: the leader's next lease round crosses the
	// deadline and crashes it — the live KillActiveReplica.
	inj.At(KillControllerOp(old.cfg.ID), 0)

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if old.State() == Dead {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if old.State() != Dead {
		t.Fatal("injected kill-controller fault never crashed the primary")
	}
	if inj.FaultCount(KillControllerOp(old.cfg.ID)) != 1 {
		t.Fatalf("kill fault fired %d times, want 1", inj.FaultCount(KillControllerOp(old.cfg.ID)))
	}

	var next *Replica
	for time.Now().Before(deadline) {
		for _, r := range c.replicas {
			if r != old && r.State() == Leader {
				next = r
			}
		}
		if next != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if next == nil {
		t.Fatal("no standby took over after the injected kill")
	}
	if mon.Counter(EventElection) < 2 {
		t.Fatalf("elections = %g, want >= 2 (initial + takeover)", mon.Counter(EventElection))
	}
}

// memberClient is the device-side half of the live membership service:
// it registers once and then heartbeats through a leader-following
// FailoverClient, keeping the device's current route assignment.
type memberClient struct {
	id int
	fc *rpc.FailoverClient

	mu     sync.Mutex
	region geo.Rect
}

// Register announces the device and its initial region to the primary.
func (mc *memberClient) Register(ctx context.Context, region geo.Rect) error {
	raw, _ := json.Marshal(registerReq{ID: mc.id, Region: region})
	out, err := mc.fc.Call(ctx, MethodRegister, raw)
	if err != nil {
		return err
	}
	var resp memberResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return err
	}
	mc.mu.Lock()
	mc.region = resp.Region
	mc.mu.Unlock()
	return nil
}

// Beat sends one heartbeat and refreshes the device's route. If the
// primary does not know the device — a takeover can lose registrations
// the dead primary had not yet replicated — Beat re-registers with the
// last route this device held, so membership self-heals on the next
// heartbeat instead of dropping the device forever.
func (mc *memberClient) Beat(ctx context.Context) error {
	raw, _ := json.Marshal(beatReq{ID: mc.id})
	out, err := mc.fc.Call(ctx, MethodBeat, raw)
	if err != nil {
		if strings.Contains(err.Error(), unknownDeviceMsg) {
			return mc.Register(ctx, mc.Region())
		}
		return err
	}
	var resp memberResp
	if err := json.Unmarshal(out, &resp); err != nil {
		return err
	}
	mc.mu.Lock()
	mc.region = resp.Region
	mc.mu.Unlock()
	return nil
}

// Region returns the route the controller last assigned this device.
func (mc *memberClient) Region() geo.Rect {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.region
}

// leaderOf reads the replica's believed leader id (-1 mid-election)
// and its current term.
func leaderOf(r *Replica) (int, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderID, r.term
}

// member snapshots the replica's registry entry for device id.
func member(r *Replica, id int) (Member, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[id]
	if !ok {
		return Member{}, false
	}
	return *m, true
}
