// Mega-swarm scenario: a heterogeneous fleet (camera drones, robotic
// cars, BittyBuzz-class tiny robots) running the swarm-native workloads
// of §2.2 — hierarchical peer-to-peer localization (anchors propagate
// position confidence outward, Swarical-style) and rumor gossip — over
// the sharded simulation executive. Devices interact only through the
// wireless medium, so the whole mission partitions cleanly across
// per-geo-cell engines: every knob that affects results (cell count,
// seed, mix, field) is fixed by the scenario config, and the Shards
// knob only chooses how many OS threads execute it. RunSwarm therefore
// returns byte-identical results at -shards=1 and -shards=8, which the
// shard-parity CI lane asserts.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"hivemind/internal/device"
	"hivemind/internal/geo"
	"hivemind/internal/netsim"
	"hivemind/internal/sim"
	"hivemind/internal/stats"
)

// SwarmClass describes one fleet class in the mix.
type SwarmClass struct {
	Name          string
	Cfg           device.Config
	Frac          float64 // fraction of the fleet
	RadioRangeM   float64 // broadcast reach
	BeaconMB      float64 // per-beacon payload (radio energy accounting)
	BeaconPeriodS float64 // gossip/localization beacon period
	SolvePeriodS  float64 // position re-solve period
	SolveIters    int     // gradient iterations per solve
}

// DefaultMix returns the mega-swarm fleet: a thin layer of long-range
// drones, a band of rovers, and a majority of tiny robots that can only
// hear nearby peers — so localization confidence must flow drone →
// rover → tinybot in hops.
func DefaultMix() []SwarmClass {
	return []SwarmClass{
		{Name: "drone", Cfg: device.DroneConfig(), Frac: 0.10, RadioRangeM: 60,
			BeaconMB: 0.01, BeaconPeriodS: 0.5, SolvePeriodS: 1.0, SolveIters: 6},
		{Name: "rover", Cfg: device.RoverConfig(), Frac: 0.30, RadioRangeM: 35,
			BeaconMB: 0.005, BeaconPeriodS: 1.0, SolvePeriodS: 2.0, SolveIters: 4},
		{Name: "tinybot", Cfg: device.TinyBotConfig(), Frac: 0.60, RadioRangeM: 14,
			BeaconMB: 0.0005, BeaconPeriodS: 2.0, SolvePeriodS: 4.0, SolveIters: 2},
	}
}

// SwarmConfig parameterises a mega-swarm run. Everything except Shards
// affects results; Shards only sets the executive's worker count and is
// guaranteed not to change a single output bit.
type SwarmConfig struct {
	Devices int     // fleet size (default 512)
	FieldM  float64 // square field side; 0 → sqrt(Devices)·10 (0.01 devices/m²)
	// Cells is the geo-cell decomposition the executive shards over.
	// It is part of the scenario (0 → Devices/128 clamped to [4,256]),
	// NOT derived from the machine — that is what makes results
	// independent of Shards.
	Cells int
	// Shards is the worker count executing the cells (0 → NumCPU).
	Shards int
	Seed   int64
	// DurationS is the simulated mission length (default 30).
	DurationS float64
	// RadioLatencyS is the medium's one-way MAC+propagation delay
	// (default 0.005). LookaheadS is the executive's declared cross-cell
	// lookahead (default = RadioLatencyS); it must not exceed the radio
	// latency or RunSwarm reports a *sim.LookaheadError.
	RadioLatencyS float64
	LookaheadS    float64
	// Rumors is how many gossip sources to seed (≤64; default 8).
	Rumors int
	// Mix is the fleet composition (default DefaultMix).
	Mix []SwarmClass
	// FailProb injects a per-beacon death probability, drawn from one
	// stream per cell seeded from (Seed, cell) so faults are
	// deterministic under sharding.
	FailProb float64
}

// anchorFrac is the fraction of devices with known positions
// (GPS/surveyed).
const anchorFrac float64 = 0.05

func (c SwarmConfig) withDefaults() SwarmConfig {
	if c.Devices <= 0 {
		c.Devices = 512
	}
	if c.FieldM <= 0 {
		c.FieldM = math.Sqrt(float64(c.Devices)) * 10
	}
	if c.Cells <= 0 {
		c.Cells = c.Devices / 128
		if c.Cells < 4 {
			c.Cells = 4
		}
		if c.Cells > 256 {
			c.Cells = 256
		}
	}
	if c.DurationS <= 0 {
		c.DurationS = 30
	}
	if c.RadioLatencyS <= 0 {
		c.RadioLatencyS = 0.005
	}
	if c.LookaheadS == 0 {
		c.LookaheadS = c.RadioLatencyS
	}
	if c.Rumors <= 0 {
		c.Rumors = 8
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	return c
}

// ClassStats reports one fleet class's outcome.
type ClassStats struct {
	Name            string
	Count           int
	Failed          int
	CoveredFrac     float64 // heard every rumor
	LocErrMeanM     float64 // non-anchor final position error
	BatteryMeanFrac float64
}

// SwarmResult reports a mega-swarm run. It deliberately carries no
// worker count and no wall-clock measurement: two runs of the same
// SwarmConfig at different Shards values must produce DeepEqual (and
// byte-identical, once serialised) results.
type SwarmResult struct {
	Devices int
	Cells   int
	Anchors int
	Failed  int // devices dead at mission end (chaos or battery)

	CoveredFrac float64 // fraction of the fleet that heard every rumor
	SpreadP50S  float64 // median time to full rumor coverage
	SpreadP99S  float64 // tail time to full rumor coverage

	LocErrStartM float64 // mean non-anchor error before any solving
	LocErrMeanM  float64 // mean non-anchor error at mission end
	LocErrP95M   float64

	Classes []ClassStats
	Radio   netsim.RadioStats

	// Executive accounting (deterministic: window boundaries depend only
	// on event-queue minima, never on worker scheduling).
	Windows       uint64
	CrossMessages uint64
	Steps         uint64
}

// String summarises the result.
func (r SwarmResult) String() string {
	return fmt.Sprintf("swarm %d dev / %d cells: covered=%.1f%% (p99 %.1fs), locerr %.1fm→%.1fm, failed=%d, %d windows",
		r.Devices, r.Cells, r.CoveredFrac*100, r.SpreadP99S, r.LocErrStartM, r.LocErrMeanM, r.Failed, r.Windows)
}

// obs is a range observation a device holds about a neighbour: the
// neighbour's claimed position estimate and confidence, and the noisy
// measured distance to it.
type obs struct {
	est  geo.Point
	conf float64
	dist float64
}

const obsRing = 8

// beaconSnap is what a beacon tells its receivers at send time: the
// sender's position estimate, confidence, rumor mask and payload size.
type beaconSnap struct {
	est      geo.Point
	conf, mb float64
	rumors   uint64
}

// swarmDev is one fleet member's mission state, device included, in an
// arena indexed by device id. Only events of the device's geo cell read
// or write it (broadcast payloads are snapshots, see beaconSnap).
type swarmDev struct {
	dev    device.Device
	class  int
	anchor bool
	sent   int // beacons sent; picks the snapshot slot

	est  geo.Point
	conf float64
	obs  [obsRing]obs
	nobs int // filled slots; once full, next is the overwrite cursor
	next int

	rumors     uint64
	heardAllAt float64 // -1 until the full mask is assembled
}

func (s *swarmDev) pushObs(o obs) {
	if s.nobs < obsRing {
		s.obs[s.nobs] = o
		s.nobs++
		return
	}
	s.obs[s.next] = o
	s.next = (s.next + 1) % obsRing
}

// solve runs iters gradient-descent steps on the range residuals,
// weighting each observation by the claimed confidence, then adopts a
// decayed confidence from the best neighbour heard — the hierarchical
// hop: anchors are 1.0, their neighbours 0.9, the next ring 0.81, …
func (s *swarmDev) solve(iters int) {
	if s.anchor || s.nobs == 0 {
		return
	}
	held := s.obs[:s.nobs]
	best := 0.0
	for _, o := range held {
		if o.conf > best {
			best = o.conf
		}
	}
	if best <= 0 {
		return
	}
	for it := 0; it < iters; it++ {
		var gx, gy, wsum float64
		for _, o := range held {
			if o.conf <= 0 {
				continue
			}
			dx, dy := s.est.X-o.est.X, s.est.Y-o.est.Y
			d := math.Hypot(dx, dy)
			if d < 1e-9 {
				continue
			}
			resid := d - o.dist
			gx += o.conf * resid * dx / d
			gy += o.conf * resid * dy / d
			wsum += o.conf
		}
		if wsum <= 0 {
			return
		}
		s.est.X -= 0.5 * gx / wsum
		s.est.Y -= 0.5 * gy / wsum
	}
	s.conf = 0.9 * best
}

// RunSwarm executes the mega-swarm mission on the sharded executive.
func RunSwarm(cfg SwarmConfig) (SwarmResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Rumors > 64 {
		return SwarmResult{}, fmt.Errorf("scenario: %d rumors exceed the 64-bit gossip mask", cfg.Rumors)
	}
	if cfg.LookaheadS > cfg.RadioLatencyS {
		return SwarmResult{}, fmt.Errorf("scenario: lookahead %g exceeds radio latency %g: %w",
			cfg.LookaheadS, cfg.RadioLatencyS, &sim.LookaheadError{LookaheadS: cfg.LookaheadS})
	}

	// Layout: a single seeded stream, consumed in device-id order during
	// setup, fixes positions, classes and phases identically at every
	// worker count.
	layout := rand.New(rand.NewSource(cfg.Seed))
	field := geo.NewField(cfg.FieldM, cfg.FieldM)
	cellRects := geo.Partition(field, cfg.Cells)
	n := cfg.Devices

	pts := make([]geo.Point, n)
	classOf := make([]int, n)
	ranges := make([]float64, n)
	cum := make([]float64, len(cfg.Mix))
	total := 0.0
	for i, cl := range cfg.Mix {
		total += cl.Frac
		cum[i] = total
	}
	minPeriod := math.Inf(1) // shortest beacon period, for the snapshot slots
	for d := 0; d < n; d++ {
		pts[d] = geo.Point{X: layout.Float64() * cfg.FieldM, Y: layout.Float64() * cfg.FieldM}
		u := layout.Float64() * total
		classOf[d] = len(cfg.Mix) - 1
		for i, c := range cum {
			if u <= c {
				classOf[d] = i
				break
			}
		}
		ranges[d] = cfg.Mix[classOf[d]].RadioRangeM
		minPeriod = math.Min(minPeriod, cfg.Mix[classOf[d]].BeaconPeriodS)
	}

	cix := geo.BuildCellIndex(cellRects, pts)
	se, err := sim.NewSharded(cfg.Seed, len(cellRects), cfg.LookaheadS, cfg.Shards)
	if err != nil {
		return SwarmResult{}, err
	}
	ix := netsim.BuildNeighborIndex(pts, ranges)
	cellOf := cix.CellOwners()
	devs := make([]swarmDev, n)
	full := uint64(1)<<uint(cfg.Rumors) - 1

	// A beacon's payload is a snapshot in one of its sender's slots. A
	// slot written at t may be rewritten after t + latency + lookahead,
	// once every window that can deliver it has closed; beacons are ≥ 0.9
	// periods apart (0.8 leaves room for rounding), so one slot suffices
	// for every default mix.
	slots := 1 + int((cfg.RadioLatencyS+cfg.LookaheadS)/(0.8*minPeriod))
	snaps := make([]beaconSnap, n*slots)
	radio, err := netsim.NewRadio(se, ix, cellOf, cfg.RadioLatencyS, func(eng *sim.Engine, src, dst int, msg int32) {
		r, p := &devs[dst], &snaps[msg]
		if r.dev.Failed() {
			return
		}
		r.dev.Receive(p.mb)
		if old := r.rumors; old != full {
			r.rumors |= p.rumors
			if r.rumors == full {
				r.heardAllAt = eng.Now()
			}
		}
		if p.conf > 0 {
			noisy := pts[src].Dist(pts[dst]) * (1 + 0.02*eng.Rand().NormFloat64())
			r.pushObs(obs{est: p.est, conf: p.conf, dist: noisy})
		}
	})
	if err != nil {
		return SwarmResult{}, err
	}

	// One death stream per cell, seeded from (root seed, cell id) and
	// drawn only by that cell's events in their deterministic order, so
	// injected deaths are identical under any sharding.
	deaths := make([]*rand.Rand, len(cellRects))
	for c := range deaths {
		deaths[c] = rand.New(rand.NewSource(sim.SeedFor(cfg.Seed, c) ^ 0x63686165f5))
	}

	// Mission loops are records with a = device id, re-posted by their
	// handlers. Per-iteration jitter draws from the owning cell's engine
	// RNG: within a cell events execute in one deterministic order, so
	// the draws are reproducible at any worker count.
	var beacon, solve uint8
	beacon = se.Handle(func(c *sim.Cell) sim.Handler {
		eng := c.Engine()
		return func(a, _ int32) {
			s := &devs[a]
			if s.dev.Failed() {
				return
			}
			if cfg.FailProb > 0 && deaths[c.ID()].Float64() < cfg.FailProb {
				s.dev.Fail()
				return
			}
			cls := &cfg.Mix[s.class]
			slot := int(a)*slots + s.sent%slots
			s.sent++
			snaps[slot] = beaconSnap{est: s.est, conf: s.conf, mb: cls.BeaconMB, rumors: s.rumors}
			s.dev.Transmit(cls.BeaconMB)
			radio.Broadcast(int(a), int32(slot))
			eng.Post(eng.Now()+cls.BeaconPeriodS*(0.9+0.2*eng.Rand().Float64()), beacon, a, 0)
		}
	})
	solve = se.Handle(func(c *sim.Cell) sim.Handler {
		eng := c.Engine()
		return func(a, _ int32) {
			s := &devs[a]
			if s.dev.Failed() {
				return
			}
			cls := &cfg.Mix[s.class]
			s.solve(cls.SolveIters)
			eng.Post(eng.Now()+cls.SolvePeriodS*(0.9+0.2*eng.Rand().Float64()), solve, a, 0)
		}
	})
	heartbeat := se.Handle(func(*sim.Cell) sim.Handler { return func(a, _ int32) { devs[a].dev.Beat() } })

	anchorEvery := int(math.Max(1, math.Round(1/anchorFrac)))
	anchors := 0
	for d := 0; d < n; d++ {
		s := &devs[d]
		s.class, s.heardAllAt = classOf[d], -1
		s.dev.Init(se.Cell(cellOf[d]).Engine(), d, cfg.Mix[s.class].Cfg, nil, heartbeat)
		if d%anchorEvery == 0 {
			s.anchor = true
			s.est = pts[d]
			s.conf = 1
			anchors++
		} else {
			s.est = geo.Point{X: layout.Float64() * cfg.FieldM, Y: layout.Float64() * cfg.FieldM}
		}
	}
	for r := 0; r < cfg.Rumors; r++ {
		devs[r*n/cfg.Rumors].rumors |= 1 << uint(r)
	}

	locErrStart := meanLocErr(devs, pts, -1)

	for d := 0; d < n; d++ {
		s := &devs[d]
		cls := &cfg.Mix[s.class]
		eng := se.Cell(cellOf[d]).Engine()
		eng.Post(layout.Float64()*cls.BeaconPeriodS, beacon, int32(d), 0)
		if !s.anchor {
			eng.Post(cls.BeaconPeriodS+layout.Float64()*cls.SolvePeriodS, solve, int32(d), 0)
		}
	}

	se.Run(cfg.DurationS)

	// Aggregate in device-id order — deterministic by construction.
	res := SwarmResult{
		Devices: n, Cells: len(cellRects), Anchors: anchors,
		LocErrStartM:  locErrStart,
		Radio:         radio.Stats(),
		Windows:       se.Windows(),
		CrossMessages: se.CrossMessages(),
		Steps:         se.Steps(),
	}
	var spread []float64
	errSample := &stats.Sample{}
	perClass := make([]ClassStats, len(cfg.Mix))
	perClassErr := make([]*stats.Sample, len(cfg.Mix))
	for i, cl := range cfg.Mix {
		perClass[i].Name = cl.Name
		perClassErr[i] = &stats.Sample{}
	}
	covered := 0
	for d := range devs {
		s := &devs[d]
		s.dev.Settle()
		c := &perClass[s.class]
		c.Count++
		c.BatteryMeanFrac += s.dev.Battery.ConsumedFraction()
		if s.dev.Failed() {
			res.Failed++
			c.Failed++
		}
		if s.rumors == full {
			covered++
			c.CoveredFrac++
			if s.heardAllAt >= 0 {
				spread = append(spread, s.heardAllAt)
			}
		}
		if !s.anchor {
			e := s.est.Dist(pts[d])
			errSample.Add(e)
			perClassErr[s.class].Add(e)
		}
	}
	res.CoveredFrac = float64(covered) / float64(n)
	for i := range perClass {
		c := &perClass[i]
		if c.Count > 0 {
			c.CoveredFrac /= float64(c.Count)
			c.BatteryMeanFrac /= float64(c.Count)
		}
		if perClassErr[i].N() > 0 {
			c.LocErrMeanM = perClassErr[i].Mean()
		}
	}
	res.Classes = perClass
	if errSample.N() > 0 {
		res.LocErrMeanM = errSample.Mean()
		res.LocErrP95M = errSample.Percentile(95)
	}
	if len(spread) > 0 {
		sort.Float64s(spread)
		res.SpreadP50S = spread[len(spread)/2]
		res.SpreadP99S = spread[(len(spread)*99)/100]
	}
	return res, nil
}

// meanLocErr averages non-anchor position error (class < 0 → all
// classes).
func meanLocErr(devs []swarmDev, pts []geo.Point, class int) float64 {
	sum, n := 0.0, 0
	for d := range devs {
		s := &devs[d]
		if s.anchor || (class >= 0 && s.class != class) {
			continue
		}
		sum += s.est.Dist(pts[d])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
