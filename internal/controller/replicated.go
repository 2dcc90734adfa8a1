package controller

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"hivemind/internal/geo"
	"hivemind/internal/metrics"
	"hivemind/internal/rpc"
	"hivemind/internal/trace"
)

// This file is the live counterpart of the simulated Controller: the
// §4.7 "two hot standby copies that can take over in case of a failure"
// running as real processes over internal/rpc. Each Replica holds a
// Raft-lite, lease-based leader election (term numbers, majority votes,
// seeded-deterministic election timeouts — no log, the replicated state
// is small enough to ship whole) and the primary replicates the device
// registry and the in-flight task table to its standbys on every lease
// broadcast. The primary also runs the live membership service: devices
// register and heartbeat over RPC, staleness past HeartbeatTimeout marks
// them failed and triggers geo.Repartition on the live fleet (§4.6,
// Fig. 10), exactly mirroring the simulated scan loop.

// Replica RPC method names.
const (
	MethodVote     = "ctrl.vote"
	MethodLease    = "ctrl.lease"
	MethodRegister = "ctrl.register"
	MethodBeat     = "ctrl.beat"
)

// KillControllerOp is the fault-injection op a replica consults before
// every lease round; an injected fault crashes the replica, so chaos
// scripts (chaos.Injector.Script / At) can kill the primary at a chosen
// moment — the live KillActiveReplica.
func KillControllerOp(id int) string { return fmt.Sprintf("kill-controller/%d", id) }

// FaultHook is the fault-injection interface the replica consults
// (chaos.Injector satisfies it).
type FaultHook interface {
	Fault(op string) error
}

// ReplicaState is a replica's election role.
type ReplicaState int

const (
	// Follower replicas apply leases and time out into candidacy.
	Follower ReplicaState = iota
	// Candidate replicas are soliciting votes for a new term.
	Candidate
	// Leader is the serving primary.
	Leader
	// Dead replicas have crashed (or been killed by chaos).
	Dead
)

// String implements fmt.Stringer.
func (s ReplicaState) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "dead"
	}
}

// ReplicaConfig tunes one controller replica.
type ReplicaConfig struct {
	// ID is this replica's index in the replica set [0, Replicas).
	ID int
	// Replicas is the replica-set size (1 primary + N hot standbys;
	// §4.7 runs 3).
	Replicas int
	// ElectionTimeoutMin/Max bound the randomized follower timeout that
	// triggers candidacy. Draws are seeded, so a fixed Seed yields a
	// deterministic timeout sequence.
	ElectionTimeoutMin time.Duration
	ElectionTimeoutMax time.Duration
	// LeaseInterval is the primary's state-replication heartbeat period.
	LeaseInterval time.Duration
	// VoteTimeout bounds each vote/lease RPC.
	VoteTimeout time.Duration
	// HeartbeatTimeout marks a registered device failed when its last
	// beat is older than this (the live HeartbeatTimeoutS; §4.6: 3 s).
	HeartbeatTimeout time.Duration
	// CheckPeriod is the primary's device-staleness scan period.
	CheckPeriod time.Duration
	// Seed makes election-timeout draws deterministic (0: wall clock).
	Seed int64
	// InitialTerm is the term the replica starts counting from. A
	// replica set restarted over a recovered store MUST set this to the
	// store's fence (store.DB.Fence after Recover): terms only advance
	// through elections, so a cluster restarting at term 0 under a
	// fence of N would elect leaders whose writes stay fenced forever.
	InitialTerm uint64
	// Fault, if non-nil, is consulted with KillControllerOp(ID) before
	// every lease round; an injected fault crashes the replica.
	Fault FaultHook
	// Recover, if non-nil, runs on promotion: the new primary enumerates
	// orphaned checkpointed tasks and re-dispatches them (wired to
	// runtime.Gateway.Recover). It returns how many were re-dispatched.
	Recover func(ctx context.Context) (int, error)
	// OnPromote, if non-nil, runs synchronously on promotion with the
	// won term, BEFORE the first lease broadcast and before Recover.
	// Wire it to store.DB.RaiseFence so the new primary's fence is up
	// before any recovered work writes — a healed old primary's stale
	// writes then bounce with store.FencedError.
	OnPromote func(term uint64)
}

// DefaultReplicaConfig mirrors the sim-side DefaultConfig at live-wire
// timescales: 1 s device beats with a 3 s staleness cutoff, and an
// election settling well inside the sim's 0.5 s failover budget.
func DefaultReplicaConfig(id, replicas int, seed int64) ReplicaConfig {
	return ReplicaConfig{
		ID:                 id,
		Replicas:           replicas,
		ElectionTimeoutMin: 150 * time.Millisecond,
		ElectionTimeoutMax: 300 * time.Millisecond,
		LeaseInterval:      50 * time.Millisecond,
		VoteTimeout:        100 * time.Millisecond,
		HeartbeatTimeout:   3 * time.Second,
		CheckPeriod:        time.Second,
		Seed:               seed,
	}
}

// TaskRecord is one in-flight task table entry, replicated to standbys
// so a new primary knows what was running when the old one died.
type TaskRecord struct {
	Method string
	Step   int
}

// Member is one live-registered device's controller-side state.
type Member struct {
	Region   geo.Rect
	LastBeat time.Time
	Failed   bool
}

// wire messages (JSON-encoded over internal/rpc).
type voteReq struct {
	Term      uint64
	Candidate int
}

type voteResp struct {
	Term    uint64
	Granted bool
}

type wireMember struct {
	Region geo.Rect
	AgoNS  int64 // beat age relative to the leader's clock
	Failed bool
}

type leaseMsg struct {
	Term    uint64
	Leader  int
	Members map[int]wireMember
	Tasks   map[string]TaskRecord
}

type leaseResp struct {
	Term uint64
	OK   bool
}

type registerReq struct {
	ID     int
	Region geo.Rect
}

type beatReq struct {
	ID int
}

type memberResp struct {
	Region geo.Rect
	Failed bool
}

// Replica is one live controller process: an RPC server plus the
// election and replication loops. Wire its Server() to a listener (or
// in-process pipes) and point peer dial functions at the other
// replicas.
type Replica struct {
	cfg    ReplicaConfig
	mon    *metrics.Registry
	srv    *rpc.Server
	peers  map[int]*rpc.FailoverClient
	tracer *trace.Live // set before Start; read under mu

	mu          sync.Mutex
	rng         *rand.Rand
	state       ReplicaState
	term        uint64
	leaderTerm  uint64 // term of the last election this replica won
	votedFor    int
	leaderID    int
	lastContact time.Time // last lease applied or vote granted (timer base)
	lastLease   time.Time // last lease applied from a serving leader
	lastQuorum  time.Time // leader: last majority-acked lease round
	lastScan    time.Time
	timeout     time.Duration // current randomized election timeout
	members     map[int]*Member
	tasks       map[string]TaskRecord

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewReplica builds one controller replica. peerDials maps replica id →
// dial function for every *other* replica; mon may be shared across the
// replica set so counters aggregate (nil: report nowhere). The replica
// starts as a follower; call Start to run its loops.
func NewReplica(cfg ReplicaConfig, peerDials map[int]func() (net.Conn, error), mon *metrics.Registry) *Replica {
	if cfg.Replicas <= 0 {
		cfg.Replicas = len(peerDials) + 1
	}
	if cfg.ElectionTimeoutMin <= 0 || cfg.ElectionTimeoutMax < cfg.ElectionTimeoutMin {
		d := DefaultReplicaConfig(cfg.ID, cfg.Replicas, cfg.Seed)
		cfg.ElectionTimeoutMin, cfg.ElectionTimeoutMax = d.ElectionTimeoutMin, d.ElectionTimeoutMax
	}
	if cfg.LeaseInterval <= 0 {
		cfg.LeaseInterval = 50 * time.Millisecond
	}
	if cfg.VoteTimeout <= 0 {
		cfg.VoteTimeout = 2 * cfg.LeaseInterval
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 3 * time.Second
	}
	if cfg.CheckPeriod <= 0 {
		cfg.CheckPeriod = time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	r := &Replica{
		cfg:      cfg,
		mon:      mon,
		srv:      rpc.NewServer(),
		peers:    make(map[int]*rpc.FailoverClient, len(peerDials)),
		rng:      rand.New(rand.NewSource(seed + int64(cfg.ID)*7919)),
		term:     cfg.InitialTerm,
		votedFor: -1,
		leaderID: -1,
		members:  make(map[int]*Member),
		tasks:    make(map[string]TaskRecord),
		stop:     make(chan struct{}),
	}
	for id, dial := range peerDials {
		// One endpoint per peer: a lazily dialled, self-redialling
		// connection. Attempts 1 because the election loop is the retry.
		r.peers[id] = rpc.NewFailover(
			[]func() (rpc.Transport, error){rpc.ConnEndpoint(dial, 8)},
			rpc.FailoverOptions{Attempts: 1, CallTimeout: cfg.VoteTimeout})
	}
	r.lastContact = time.Now()
	r.timeout = r.drawTimeout()
	r.registerHandlers()
	return r
}

// drawTimeout picks the next randomized election timeout (caller holds
// no lock on rng except mu; call under mu or before Start).
func (r *Replica) drawTimeout() time.Duration {
	span := r.cfg.ElectionTimeoutMax - r.cfg.ElectionTimeoutMin
	if span <= 0 {
		return r.cfg.ElectionTimeoutMin
	}
	return r.cfg.ElectionTimeoutMin + time.Duration(r.rng.Int63n(int64(span)))
}

// SetTracer installs a live tracer: the replica marks elections,
// takeovers, and device failures as instants on the "controller" lane,
// so a chaos run's Chrome trace shows the control-plane timeline next
// to the task spans. Call before Start.
func (r *Replica) SetTracer(l *trace.Live) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracer = l
}

// Server returns the replica's RPC server (serve it on a listener or
// in-process pipes).
func (r *Replica) Server() *rpc.Server { return r.srv }

// Start launches the election/lease loops.
func (r *Replica) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Kill crashes the replica: loops stop, the RPC server closes (dropping
// every device and peer connection), and the replica never serves
// again. Standbys detect the missing lease and elect a new primary.
func (r *Replica) Kill() {
	r.stopOnce.Do(func() {
		r.mu.Lock()
		r.state = Dead
		r.mu.Unlock()
		close(r.stop)
		r.srv.Close()
		for _, p := range r.peers {
			p.Close()
		}
	})
	r.wg.Wait()
}

// Done is closed once the replica is Dead, killed or crashed by chaos.
func (r *Replica) Done() <-chan struct{} { return r.stop }

// State returns the replica's current role.
func (r *Replica) State() ReplicaState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// IsLeader reports whether this replica is the serving primary.
func (r *Replica) IsLeader() bool { return r.State() == Leader }

// LeaderTerm returns the term of the last election this replica WON —
// the fence token every store mutation issued on its behalf should
// carry (wire it into store.NewFencedCheckpointLog's FenceSource). It
// is deliberately not the current term: a deposed primary campaigning
// inside a minority partition inflates its term without holding a
// lease, and stamping writes with a candidacy term would let them
// leapfrog the legitimate primary's fence. Authority comes from won
// elections only.
func (r *Replica) LeaderTerm() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaderTerm
}

// StepDown demotes a leading replica to follower immediately. It is
// the escape hatch for out-of-band proof of deposition — a fenced
// store write (wire runtime.GatewayConfig.OnFenced here) means a newer
// primary exists even if this replica's lease quorum still looks
// healthy inside its partition. No-op unless currently leader.
func (r *Replica) StepDown() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != Leader {
		return
	}
	r.state = Follower
	r.leaderID = -1
	r.lastContact = time.Now()
	r.timeout = r.drawTimeout()
	r.mon.CountEvent(EventStepDown)
	r.tracer.Mark("step-down", "controller", map[string]string{
		"replica": strconv.Itoa(r.cfg.ID),
		"term":    strconv.FormatUint(r.term, 10),
		"reason":  "fenced",
	}, false)
}

// Admission returns a gate for primary-only services fronted by this
// replica (e.g. a gateway's chain methods): nil when leader, a
// NotLeaderError redirect otherwise. Wire it into
// runtime.GatewayConfig.Admission.
func (r *Replica) Admission() func() error {
	return func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.state == Leader {
			return nil
		}
		return rpc.NotLeaderError(r.leaderID)
	}
}

// TaskStarted records an in-flight task on the primary's replicated
// table (satisfies runtime.TaskTracker).
func (r *Replica) TaskStarted(id, method string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tasks[id] = TaskRecord{Method: method}
}

// TaskStep advances a tracked task's step index.
func (r *Replica) TaskStep(id string, step int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tasks[id]; ok && step > t.Step {
		t.Step = step
		r.tasks[id] = t
	}
}

// TaskFinished drops a completed task from the table (satisfies
// runtime.TaskTracker).
func (r *Replica) TaskFinished(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.tasks, id)
}

// Tasks snapshots the in-flight task table.
func (r *Replica) Tasks() map[string]TaskRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]TaskRecord, len(r.tasks))
	for k, v := range r.tasks {
		out[k] = v
	}
	return out
}

// registerHandlers binds the replica's RPC surface.
func (r *Replica) registerHandlers() {
	r.srv.Register(MethodVote, r.handleVote)
	r.srv.Register(MethodLease, r.handleLease)
	r.srv.Register(MethodRegister, r.handleRegister)
	r.srv.Register(MethodBeat, r.handleBeat)
}

// loop drives the role state machine on a fine-grained tick.
func (r *Replica) loop() {
	defer r.wg.Done()
	tick := r.cfg.LeaseInterval / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.mu.Lock()
		state := r.state
		timedOut := time.Since(r.lastContact) > r.timeout
		leaseDue := state == Leader && time.Since(r.lastQuorum) >= r.cfg.LeaseInterval
		r.mu.Unlock()
		switch {
		case state == Dead:
			return
		case state == Leader && leaseDue:
			r.leaderRound()
		case state != Leader && timedOut:
			r.runElection()
		}
	}
}

// leaderRound is one primary duty cycle: consult the chaos hook, scan
// device heartbeats, broadcast the state lease.
func (r *Replica) leaderRound() {
	if r.cfg.Fault != nil {
		if err := r.cfg.Fault.Fault(KillControllerOp(r.cfg.ID)); err != nil {
			go r.Kill() // crash without deadlocking on our own wg
			return
		}
	}
	r.scanDevices()
	r.broadcastLease()
}

// runElection runs one candidacy round: bump the term, vote for self,
// solicit the peers, and take leadership on majority.
func (r *Replica) runElection() {
	r.mu.Lock()
	if r.state == Leader || r.state == Dead {
		r.mu.Unlock()
		return
	}
	r.term++
	term := r.term
	r.state = Candidate
	r.votedFor = r.cfg.ID
	r.leaderID = -1
	r.lastContact = time.Now()
	r.timeout = r.drawTimeout()
	r.mu.Unlock()

	req, _ := json.Marshal(voteReq{Term: term, Candidate: r.cfg.ID})
	votes := 1 // self
	var maxTerm uint64
	var vmu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range r.peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.VoteTimeout)
			defer cancel()
			raw, err := p.Call(ctx, MethodVote, req)
			if err != nil {
				return
			}
			var resp voteResp
			if json.Unmarshal(raw, &resp) != nil {
				return
			}
			vmu.Lock()
			if resp.Granted {
				votes++
			}
			if resp.Term > maxTerm {
				maxTerm = resp.Term
			}
			vmu.Unlock()
		}()
	}
	wg.Wait()

	r.mu.Lock()
	if maxTerm > r.term {
		// A peer is ahead: fall back to follower at its term.
		r.term = maxTerm
		r.state = Follower
		r.votedFor = -1
		r.mu.Unlock()
		return
	}
	if r.state != Candidate || r.term != term || votes < r.quorum() {
		r.mu.Unlock()
		return // superseded or lost; the timer retries with a fresh draw
	}
	r.state = Leader
	r.leaderID = r.cfg.ID
	r.leaderTerm = term
	now := time.Now()
	r.lastQuorum = now
	r.lastScan = now
	r.mon.CountEvent(EventElection)
	r.tracer.Mark("election-won", "controller", map[string]string{
		"replica": strconv.Itoa(r.cfg.ID),
		"term":    strconv.FormatUint(term, 10),
	}, false)
	promotedAfter := time.Duration(0)
	if !r.lastLease.IsZero() {
		// A previously serving primary existed: this is a failover, and
		// the unavailability window ran from its last lease to now.
		promotedAfter = now.Sub(r.lastLease)
		r.mon.CountEvent(EventFailover)
		r.mon.Observe(SampleFailoverLatency, promotedAfter.Seconds())
		r.tracer.Mark("failover", "controller", map[string]string{
			"replica":  strconv.Itoa(r.cfg.ID),
			"window_s": strconv.FormatFloat(promotedAfter.Seconds(), 'f', 4, 64),
		}, true)
	}
	recover := r.cfg.Recover
	onPromote := r.cfg.OnPromote
	r.mu.Unlock()

	// Raise the store fence first: once it is up, any write still in
	// flight from the deposed primary lands behind the fence and is
	// rejected instead of racing the recovery below.
	if onPromote != nil {
		onPromote(term)
	}
	// Assert authority immediately, then re-dispatch orphaned tasks
	// through the checkpoint log (§4.7 takeover).
	r.broadcastLease()
	if recover != nil {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*r.cfg.HeartbeatTimeout)
			defer cancel()
			if n, err := recover(ctx); err == nil {
				r.mon.Add(EventOrphanRedispatch, float64(n))
			}
		}()
	}
}

// quorum is the majority size of the replica set.
func (r *Replica) quorum() int { return r.cfg.Replicas/2 + 1 }

// broadcastLease ships the replicated state (device registry + task
// table) to every standby and renews the leadership lease on majority
// ack. Losing the majority for longer than the election timeout demotes
// the leader, so a partitioned old primary cannot keep serving.
func (r *Replica) broadcastLease() {
	r.mu.Lock()
	if r.state != Leader {
		r.mu.Unlock()
		return
	}
	term := r.term
	now := time.Now()
	msg := leaseMsg{
		Term:    term,
		Leader:  r.cfg.ID,
		Members: make(map[int]wireMember, len(r.members)),
		Tasks:   make(map[string]TaskRecord, len(r.tasks)),
	}
	for id, m := range r.members {
		msg.Members[id] = wireMember{Region: m.Region, AgoNS: now.Sub(m.LastBeat).Nanoseconds(), Failed: m.Failed}
	}
	for id, t := range r.tasks {
		msg.Tasks[id] = t
	}
	r.mu.Unlock()

	raw, _ := json.Marshal(msg)
	acks := 1 // self
	var maxTerm uint64
	var amu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range r.peers {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.cfg.VoteTimeout)
			defer cancel()
			rawResp, err := p.Call(ctx, MethodLease, raw)
			if err != nil {
				return
			}
			var resp leaseResp
			if json.Unmarshal(rawResp, &resp) != nil {
				return
			}
			amu.Lock()
			if resp.OK {
				acks++
			}
			if resp.Term > maxTerm {
				maxTerm = resp.Term
			}
			amu.Unlock()
		}()
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != Leader || r.term != term {
		return
	}
	if maxTerm > r.term {
		// A peer answered from a higher term: a newer primary exists (or
		// an election is ahead of us) — step down at its term.
		r.term = maxTerm
		r.state = Follower
		r.votedFor = -1
		r.leaderID = -1
		r.mon.CountEvent(EventStepDown)
		return
	}
	if acks >= r.quorum() {
		r.lastQuorum = time.Now()
	} else if time.Since(r.lastQuorum) > r.cfg.ElectionTimeoutMax {
		// Lease expired without majority contact: step down rather than
		// split-brain with a newly elected primary.
		r.state = Follower
		r.leaderID = -1
		r.lastContact = time.Now()
		r.timeout = r.drawTimeout()
		r.mon.CountEvent(EventStepDown)
	}
}

// handleVote answers a candidate's vote request.
func (r *Replica) handleVote(payload []byte) ([]byte, error) {
	var req voteReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, rpc.ServerError("controller: bad vote request")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	resp := voteResp{Term: r.term}
	if req.Term < r.term {
		return json.Marshal(resp)
	}
	// Leader stickiness: while the current leader's lease is fresh,
	// refuse to unseat it (prevents a flappy peer from forcing churn).
	if req.Term == r.term && r.leaderID != -1 && req.Candidate != r.leaderID &&
		time.Since(r.lastLease) < r.cfg.ElectionTimeoutMin {
		return json.Marshal(resp)
	}
	if req.Term > r.term {
		r.term = req.Term
		r.votedFor = -1
		if r.state == Leader || r.state == Candidate {
			r.state = Follower
		}
		r.leaderID = -1
	}
	resp.Term = r.term
	if r.votedFor == -1 || r.votedFor == req.Candidate {
		r.votedFor = req.Candidate
		r.lastContact = time.Now() // granting a vote resets the timer
		resp.Granted = true
	}
	return json.Marshal(resp)
}

// handleLease applies a primary's state broadcast.
func (r *Replica) handleLease(payload []byte) ([]byte, error) {
	var msg leaseMsg
	if err := json.Unmarshal(payload, &msg); err != nil {
		return nil, rpc.ServerError("controller: bad lease")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if msg.Term < r.term {
		return json.Marshal(leaseResp{Term: r.term})
	}
	if msg.Term > r.term {
		r.votedFor = -1
	}
	r.term = msg.Term
	r.state = Follower
	r.leaderID = msg.Leader
	now := time.Now()
	r.lastContact = now
	r.lastLease = now
	// Apply the replicated snapshot. Beat ages are relative to the
	// leader's clock, so absolute wall-clock skew between replicas does
	// not corrupt staleness decisions after a takeover.
	members := make(map[int]*Member, len(msg.Members))
	for id, wm := range msg.Members {
		members[id] = &Member{Region: wm.Region, LastBeat: now.Add(-time.Duration(wm.AgoNS)), Failed: wm.Failed}
	}
	r.members = members
	tasks := make(map[string]TaskRecord, len(msg.Tasks))
	for id, t := range msg.Tasks {
		tasks[id] = t
	}
	r.tasks = tasks
	return json.Marshal(leaseResp{Term: r.term, OK: true})
}

// handleRegister admits a device into the live membership service.
// Registration is idempotent and revives a previously failed device.
func (r *Replica) handleRegister(payload []byte) ([]byte, error) {
	var req registerReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, rpc.ServerError("controller: bad register request")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != Leader {
		return nil, rpc.NotLeaderError(r.leaderID)
	}
	m, ok := r.members[req.ID]
	if !ok {
		m = &Member{}
		r.members[req.ID] = m
	}
	m.Region = req.Region
	m.LastBeat = time.Now()
	m.Failed = false
	return json.Marshal(memberResp{Region: m.Region})
}

// handleBeat records a device heartbeat and returns the device's
// current route, so repartition gainers pick their grown region up on
// the next beat (the live route push of Fig. 10).
func (r *Replica) handleBeat(payload []byte) ([]byte, error) {
	var req beatReq
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, rpc.ServerError("controller: bad heartbeat")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != Leader {
		return nil, rpc.NotLeaderError(r.leaderID)
	}
	m, ok := r.members[req.ID]
	if !ok {
		return nil, rpc.ServerError(unknownDeviceMsg)
	}
	if !m.Failed {
		m.LastBeat = time.Now()
	}
	return json.Marshal(memberResp{Region: m.Region, Failed: m.Failed})
}

// scanDevices is the primary's staleness scan: devices whose beats are
// older than HeartbeatTimeout are marked failed and their region is
// repartitioned among alive members (§4.6).
func (r *Replica) scanDevices() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if time.Since(r.lastScan) < r.cfg.CheckPeriod {
		return
	}
	r.lastScan = time.Now()
	now := r.lastScan
	ids := make([]int, 0, len(r.members))
	for id := range r.members {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		m := r.members[id]
		if m.Failed || now.Sub(m.LastBeat) <= r.cfg.HeartbeatTimeout {
			continue
		}
		r.mon.CountEvent(EventHeartbeatMissed)
		r.failMemberLocked(ids, id)
	}
}

// failMemberLocked marks one device failed and repartitions its region.
// Caller holds r.mu.
func (r *Replica) failMemberLocked(ids []int, failedID int) {
	m := r.members[failedID]
	m.Failed = true
	r.mon.CountEvent(EventDeviceFailure)
	r.tracer.Mark("device-failed", "controller", map[string]string{
		"device": strconv.Itoa(failedID),
	}, false)
	if !m.Region.Valid() {
		return
	}
	regions := make([]geo.Rect, len(ids))
	alive := make([]bool, len(ids))
	failedIdx := -1
	for i, id := range ids {
		mm := r.members[id]
		regions[i] = mm.Region
		alive[i] = !mm.Failed
		if id == failedID {
			failedIdx = i
		}
	}
	newRegs, gainers := geo.Repartition(regions, alive, failedIdx)
	for i, id := range ids {
		r.members[id].Region = newRegs[i]
	}
	for range gainers {
		r.mon.CountEvent(EventRouteUpdate)
	}
}

// unknownDeviceMsg is the beat rejection for an unregistered device id.
// A device's client recognises it to re-register after a failover that
// lost a not-yet-replicated registration.
const unknownDeviceMsg = "controller: unknown device; register first"
