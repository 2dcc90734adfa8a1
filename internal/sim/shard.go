// Sharded execution: one simulation partitioned across per-geo-cell
// Engines that advance concurrently under a conservative time-window
// protocol.
//
// The decomposition exploits the structure of the swarm model: devices
// interact with devices in other cells only through the wireless
// medium, and the medium has a minimum latency (MAC + propagation) it
// declares as its *lookahead* L. Any event a cell executes at virtual
// time t can therefore influence another cell no earlier than t+L.
// That bound makes the following window protocol safe:
//
//	w1 = min over cells of (earliest pending event time) + L
//
// Every cell runs independently up to w1 — no locks, no rollback —
// buffering cross-cell deliveries in a per-cell outbox. At the window
// barrier the outboxes are exchanged: because every send happened at
// some t >= minNext and was stamped at least L in the future, every
// delivery lands at or after w1, i.e. in a window nobody has simulated
// yet. Causality holds without ever peeking into a neighbour's queue.
//
// Determinism is by construction and independent of the worker count:
//
//   - the cell decomposition is fixed by the scenario, not by the
//     machine, and each cell's Engine seeds its RNG from
//     SeedFor(rootSeed, cellID) (a splitmix64 hash), so a cell draws
//     the same random stream whether one worker or sixteen advance
//     the cells;
//   - window boundaries depend only on queue minima, which are the
//     same under any scheduling of the independent cells;
//   - outboxes are drained in (source cell, send order) at the
//     barrier, so tie-breaking seq numbers in the destination engine
//     are assigned identically on every run.
//
// The -shards knob therefore only changes wall-clock time; reports are
// byte-identical at every setting, which is what the shard-parity CI
// lane asserts.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SeedFor derives the deterministic RNG seed for one cell of a sharded
// run from the root seed, using a splitmix64-style hash so nearby
// (seed, cell) pairs produce uncorrelated streams. Cell 0 of a 1-cell
// run and cell 0 of a 64-cell run see the same stream: a run's
// randomness depends on the decomposition, never on the worker count.
func SeedFor(root int64, cell int) int64 {
	z := uint64(root) + 0x9e3779b97f4a7c15*(uint64(cell)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// LookaheadError reports a sharded configuration whose declared
// cross-cell lookahead cannot make the window protocol safe. A zero
// (or negative) lookahead would collapse every window to a point and
// let a cell influence a neighbour "now" — conservative synchronization
// is impossible, so the configuration is rejected up front.
type LookaheadError struct {
	LookaheadS Time
}

// Error implements error.
func (e *LookaheadError) Error() string {
	return fmt.Sprintf("sim: cross-cell lookahead must be positive, got %g s", e.LookaheadS)
}

// crossEvent is one buffered cross-cell record for cell to.
type crossEvent struct {
	at   Time
	to   int32
	a, b int32
	kind uint8
}

// Cell is one shard of a sharded simulation: an Engine plus the outbox
// for cross-cell sends. Model code running inside a cell's events may
// use the cell's Engine freely and must route any interaction with
// state owned by another cell through Post.
type Cell struct {
	se  *ShardedEngine
	id  int
	eng *Engine
	out []crossEvent
}

// ID returns the cell's index.
func (c *Cell) ID() int { return c.id }

// Engine returns the cell's private engine. Scheduling on it is only
// legal from the cell's own events (or before Run starts).
func (c *Cell) Engine() *Engine { return c.eng }

// Post schedules a record at absolute time at inside cell to, from the
// sending cell's own events (or before Run). kind must come from
// ShardedEngine.Handle, so it names one handler on every cell; records
// carry values, never a closure over the sender's state. A cross-cell
// post must respect the lookahead, at >= now + lookahead: a violation
// would corrupt causality under parallel execution, so it panics like
// scheduling in the past. Posts to the own cell are local events.
func (c *Cell) Post(to int, at Time, kind uint8, a, b int32) {
	if to == c.id {
		c.eng.Post(at, kind, a, b)
		return
	}
	if to < 0 || to >= len(c.se.cells) {
		panic(fmt.Sprintf("sim: send to unknown cell %d of %d", to, len(c.se.cells)))
	}
	if horizon := c.eng.now + c.se.lookahead; at < horizon {
		panic(fmt.Sprintf("sim: cross-cell send at %g violates lookahead horizon %g (now %g, lookahead %g)",
			at, horizon, c.eng.now, c.se.lookahead))
	}
	c.out = append(c.out, crossEvent{at: at, to: int32(to), a: a, b: b, kind: kind})
}

// ShardedEngine executes one simulation partitioned into per-cell
// Engines under conservative time-window synchronization. Construct
// with NewSharded, populate the cells' engines, then Run.
type ShardedEngine struct {
	cells     []*Cell
	lookahead Time
	workers   int

	// Per-window scheduling state: windowEnd is published to workers
	// via the work channel send (happens-before), cursor hands out
	// cells to whichever worker is free.
	windowEnd Time
	cursor    atomic.Int64

	windows uint64
	crossed uint64
}

// NewSharded builds a sharded executive with the given number of cells.
// lookaheadS is the declared minimum cross-cell latency in seconds and
// must be positive (a zero lookahead makes conservative windows
// impossible; the typed *LookaheadError reports it). workers bounds how
// many OS goroutines advance cells concurrently — 0 means NumCPU. Each
// cell's engine is seeded from SeedFor(rootSeed, cell).
func NewSharded(rootSeed int64, cells int, lookaheadS Time, workers int) (*ShardedEngine, error) {
	if cells <= 0 {
		return nil, fmt.Errorf("sim: sharded run needs at least one cell, got %d", cells)
	}
	if lookaheadS <= 0 {
		return nil, &LookaheadError{LookaheadS: lookaheadS}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cells {
		workers = cells
	}
	se := &ShardedEngine{lookahead: lookaheadS, workers: workers}
	se.cells = make([]*Cell, cells)
	for i := range se.cells {
		se.cells[i] = &Cell{se: se, id: i, eng: NewEngine(SeedFor(rootSeed, i))}
	}
	return se, nil
}

// Handle registers one record handler on every cell, built for each
// cell by mk, and returns its kind, which is the same on every cell.
func (s *ShardedEngine) Handle(mk func(c *Cell) Handler) uint8 {
	kind := s.cells[0].eng.Handle(mk(s.cells[0]))
	for _, c := range s.cells[1:] {
		if c.eng.Handle(mk(c)) != kind {
			panic("sim: cells registered different record kinds")
		}
	}
	return kind
}

// Cells returns the number of cells.
func (s *ShardedEngine) Cells() int { return len(s.cells) }

// Cell returns cell i.
func (s *ShardedEngine) Cell(i int) *Cell { return s.cells[i] }

// Lookahead returns the declared cross-cell lookahead in seconds.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Windows returns how many synchronization windows have executed.
func (s *ShardedEngine) Windows() uint64 { return s.windows }

// CrossMessages returns how many cross-cell deliveries have been
// exchanged at barriers so far.
func (s *ShardedEngine) CrossMessages() uint64 { return s.crossed }

// Steps sums executed events across cells.
func (s *ShardedEngine) Steps() uint64 {
	var n uint64
	for _, c := range s.cells {
		n += c.eng.Steps()
	}
	return n
}

// minNext returns the earliest pending event time across all cells
// (Infinity when every queue is empty). Cancelled events still count —
// a too-early window is merely a shorter safe window, never an unsafe
// one — and an empty cell contributes nothing, so it can never stall
// the protocol. A purge drops a cell's cancelled events, so it can move
// a window bound later, but only in a cell with more than 64 cancelled
// events pending that outnumber its live ones; the swarm mission
// cancels none.
func (s *ShardedEngine) minNext() Time {
	min := Infinity
	for _, c := range s.cells {
		if h := c.eng.events; len(h) > 0 && h[0].at < min {
			min = h[0].at
		}
	}
	return min
}

// sweep advances cells to the current window end until none remain.
// Cells are handed out through an atomic cursor, so any number of
// workers can share the sweep without coordinating beyond the barrier.
func (s *ShardedEngine) sweep() {
	end := s.windowEnd
	n := len(s.cells)
	for {
		i := int(s.cursor.Add(1)) - 1
		if i >= n {
			return
		}
		c := s.cells[i]
		c.eng.RunUntil(end)
	}
}

// exchange drains every outbox into the destination engines. Iteration
// order (source cell ascending, send order within a cell) is fixed, so
// the seq tie-breakers the destination engine assigns are identical on
// every run regardless of how the preceding window was scheduled.
func (s *ShardedEngine) exchange() {
	for _, c := range s.cells {
		for _, m := range c.out {
			// The lookahead bound guarantees at >= the window boundary
			// every clock now sits on, so this never schedules in the
			// destination's past.
			s.cells[m.to].eng.Post(m.at, m.kind, m.a, m.b)
		}
		s.crossed += uint64(len(c.out))
		c.out = c.out[:0]
	}
}

// Run executes events with timestamps <= limit across all cells and
// advances every cell's clock to exactly limit (mirroring
// Engine.RunUntil's window-stepping contract). It returns the number
// of events executed during this call.
func (s *ShardedEngine) Run(limit Time) uint64 {
	before := s.Steps()

	// Persistent workers for this Run call: each window hands them one
	// token; they sweep and hit the barrier. Spawned only when the
	// configuration actually allows parallelism.
	nw := s.workers
	if nw > len(s.cells) {
		nw = len(s.cells)
	}
	var (
		work    chan struct{}
		barrier sync.WaitGroup
	)
	if nw > 1 {
		work = make(chan struct{})
		for i := 0; i < nw-1; i++ {
			go func() {
				for range work {
					s.sweep()
					barrier.Done()
				}
			}()
		}
		defer close(work)
	}

	runWindow := func(end Time) {
		s.windowEnd = end
		s.cursor.Store(0)
		if nw > 1 {
			barrier.Add(nw - 1)
			for i := 0; i < nw-1; i++ {
				work <- struct{}{}
			}
		}
		s.sweep()
		if nw > 1 {
			barrier.Wait()
		}
		s.windows++
	}

	for {
		minNext := s.minNext()
		if minNext > limit || minNext >= Infinity {
			break
		}
		end := minNext + s.lookahead
		if end > limit {
			end = limit
		}
		runWindow(end)
		s.exchange()
	}

	// Land every clock exactly on limit, like RunUntil does for a
	// window boundary (queues may still hold events beyond limit).
	if limit < Infinity {
		for _, c := range s.cells {
			if c.eng.Now() < limit {
				c.eng.RunUntil(limit)
			}
		}
	}
	return s.Steps() - before
}
