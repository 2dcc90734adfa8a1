package netsim

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"hivemind/internal/geo"
	"hivemind/internal/sim"
)

// NeighborIndex precomputes, for a static device layout, which devices
// each transmitter reaches: the neighbour sets a swarm broadcast
// delivers to. Construction bins positions on a uniform grid sized by
// the largest radio range, so building all n lists costs O(n · local
// density) instead of the O(n²) all-pairs scan — and a Neighbors query
// afterwards is a zero-allocation slice lookup. The same index serves
// the single-engine path and every cell of a sharded run: range
// queries never scan the whole fleet again.
type NeighborIndex struct {
	pos []geo.Point
	nbr [][]int32 // per device, ascending ids within the device's range
}

// BuildNeighborIndex computes per-device neighbour sets: e is a
// neighbour of d when dist(d,e) <= rangeM[d] (transmitter-ranged, so
// asymmetric mixes of long-range drones and short-range tiny robots
// work naturally). Positions are treated as static for the index's
// lifetime.
func BuildNeighborIndex(pts []geo.Point, rangeM []float64) *NeighborIndex {
	if len(pts) != len(rangeM) {
		panic("netsim: positions and ranges must align")
	}
	ix := &NeighborIndex{pos: pts, nbr: make([][]int32, len(pts))}
	if len(pts) == 0 {
		return ix
	}
	// Grid cell side = the largest range: any neighbour of d lies in
	// d's bin or one of the 8 surrounding it... for d's own range; we
	// size conservatively by the global maximum so one grid serves all
	// classes.
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	side := 0.0
	for i, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		side = math.Max(side, rangeM[i])
	}
	if side <= 0 {
		return ix // no device can reach anything
	}
	cols := int((maxX-minX)/side) + 1
	rows := int((maxY-minY)/side) + 1
	binOf := func(p geo.Point) (int, int) {
		return int((p.X - minX) / side), int((p.Y - minY) / side)
	}
	bins := make([][]int32, cols*rows)
	for i, p := range pts {
		bx, by := binOf(p)
		bi := by*cols + bx
		bins[bi] = append(bins[bi], int32(i))
	}
	for d, p := range pts {
		r := rangeM[d]
		if r <= 0 {
			continue
		}
		r2 := r * r
		bx, by := binOf(p)
		span := int(r/side) + 1
		var out []int32
		for y := by - span; y <= by+span; y++ {
			if y < 0 || y >= rows {
				continue
			}
			for x := bx - span; x <= bx+span; x++ {
				if x < 0 || x >= cols {
					continue
				}
				for _, e := range bins[y*cols+x] {
					if int(e) == d {
						continue
					}
					q := pts[e]
					dx, dy := q.X-p.X, q.Y-p.Y
					if dx*dx+dy*dy <= r2 {
						out = append(out, e)
					}
				}
			}
		}
		slices.Sort(out)
		ix.nbr[d] = out
	}
	return ix
}

// Neighbors returns device d's neighbour set (read-only; shared). The
// lookup allocates nothing.
func (ix *NeighborIndex) Neighbors(d int) []int32 { return ix.nbr[d] }

// Position returns device d's static position.
func (ix *NeighborIndex) Position(d int) geo.Point { return ix.pos[d] }

// AvgDegree reports the mean neighbour count (diagnostics/tests).
func (ix *NeighborIndex) AvgDegree() float64 {
	if len(ix.nbr) == 0 {
		return 0
	}
	n := 0
	for _, l := range ix.nbr {
		n += len(l)
	}
	return float64(n) / float64(len(ix.nbr))
}

// RadioStats aggregates broadcast accounting across cells.
type RadioStats struct {
	Broadcasts  uint64 // transmissions
	Deliveries  uint64 // per-receiver payload deliveries
	CrossEvents uint64 // cross-cell delivery events emitted (≤ one per neighbour cell per broadcast)
}

// Radio is the sharded wireless medium: per-cell local delivery plus
// boundary channels into neighbouring cells, with the medium's MAC +
// propagation latency declared as the executive's cross-cell lookahead.
// A broadcast delivers its payload to every neighbour of the sender
// after exactly that latency; in-cell receivers get a local event,
// receivers in other cells get one grouped delivery event per
// destination cell through the window barrier. Built over a one-cell
// executive it degenerates to a plain indexed broadcast medium — the
// single-engine path shares every code path but the mailbox.
type Radio struct {
	se      *sim.ShardedEngine
	ix      *NeighborIndex
	cellOf  []int
	latency sim.Time

	// nbrCells[d] lists the distinct cells d's neighbours occupy,
	// ascending. Static, so each broadcast emits exactly the events it
	// needs without scanning or allocating per-cell grouping state.
	nbrCells [][]int32

	// Counters are per-cell slices written only by the owning cell's
	// events, so the hot path needs no atomics; Stats sums at read.
	sent      []uint64
	delivered []uint64
	crossed   []uint64
}

// NewRadio wires a radio over the executive. latencyS is the medium's
// one-way MAC+propagation delay; it must be at least the executive's
// declared lookahead or the conservative windows would be unsound —
// a violation reports the executive's typed *sim.LookaheadError.
// cellOf maps each device to its owning cell (geo.CellIndex.CellOwners
// of the same cut the executive was built with).
func NewRadio(se *sim.ShardedEngine, ix *NeighborIndex, cellOf []int, latencyS float64) (*Radio, error) {
	if latencyS < se.Lookahead() {
		return nil, fmt.Errorf("netsim: radio latency %g below executive lookahead: %w",
			latencyS, &sim.LookaheadError{LookaheadS: latencyS})
	}
	for d, c := range cellOf {
		if c < 0 || c >= se.Cells() {
			return nil, fmt.Errorf("netsim: device %d assigned to unknown cell %d", d, c)
		}
	}
	r := &Radio{
		se: se, ix: ix, cellOf: cellOf, latency: latencyS,
		nbrCells:  make([][]int32, len(ix.nbr)),
		sent:      make([]uint64, se.Cells()),
		delivered: make([]uint64, se.Cells()),
		crossed:   make([]uint64, se.Cells()),
	}
	for d, nbrs := range ix.nbr {
		var cs []int32
		for _, n := range nbrs {
			c := int32(cellOf[n])
			found := false
			for _, have := range cs {
				if have == c {
					found = true
					break
				}
			}
			if !found {
				cs = append(cs, c)
			}
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		r.nbrCells[d] = cs
	}
	return r, nil
}

// LatencyS returns the one-way delivery latency.
func (r *Radio) LatencyS() float64 { return r.latency }

// Neighbors exposes the underlying index lookup (zero-allocation).
func (r *Radio) Neighbors(d int) []int32 { return r.ix.Neighbors(d) }

// Broadcast transmits from src to every neighbour in range. deliver
// runs once per receiver after the medium latency, on the receiver's
// owning cell — so it may freely mutate receiver state. It must be
// called from src's own cell (an event executing there, or setup code
// before Run).
func (r *Radio) Broadcast(src int, deliver func(dst int)) {
	srcCell := r.cellOf[src]
	c := r.se.Cell(srcCell)
	at := c.Engine().Now() + r.latency
	nbrs := r.ix.nbr[src]
	r.sent[srcCell]++
	for _, dc32 := range r.nbrCells[src] {
		dc := int(dc32)
		if dc == srcCell {
			c.Engine().DeferAt(at, func() { r.deliverIn(dc, nbrs, deliver) })
		} else {
			r.crossed[srcCell]++
			c.Send(dc, at, func() { r.deliverIn(dc, nbrs, deliver) })
		}
	}
}

// deliverIn runs the payload for every neighbour owned by cell dc.
func (r *Radio) deliverIn(dc int, nbrs []int32, deliver func(dst int)) {
	for _, n := range nbrs {
		if r.cellOf[n] == dc {
			r.delivered[dc]++
			deliver(int(n))
		}
	}
}

// Stats sums the per-cell counters. Call between Run windows (or after
// the run), not from inside concurrently-executing model code.
func (r *Radio) Stats() RadioStats {
	var s RadioStats
	for i := range r.sent {
		s.Broadcasts += r.sent[i]
		s.Deliveries += r.delivered[i]
		s.CrossEvents += r.crossed[i]
	}
	return s
}
