package netsim

import (
	"fmt"
	"math"
	"slices"

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
	// Device d's neighbours, ascending, are nbr[off[d]:off[d+1]]: every
	// list lives in one flat array (CSR), so the index is two
	// allocations whatever the fleet size.
	off []int32
	nbr []int32
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
	ix := &NeighborIndex{pos: pts, off: make([]int32, len(pts)+1)}
	if len(pts) == 0 {
		return ix
	}
	// Grid cell side = the largest range, so one grid serves all
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
	// visit calls f for every device in d's range. Only the bins that
	// the range's bounding box touches can hold one; the box is padded
	// by a hair of a bin so float rounding at an edge never drops one.
	const pad = 1e-9
	visit := func(d int, f func(e int32)) {
		p, r := pts[d], rangeM[d]
		if r <= 0 {
			return
		}
		r2 := r * r
		x0, x1 := max(int((p.X-r-minX)/side-pad), 0), min(int((p.X+r-minX)/side+pad), cols-1)
		y0, y1 := max(int((p.Y-r-minY)/side-pad), 0), min(int((p.Y+r-minY)/side+pad), rows-1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				for _, e := range bins[y*cols+x] {
					q := pts[e]
					dx, dy := q.X-p.X, q.Y-p.Y
					if int(e) != d && dx*dx+dy*dy <= r2 {
						f(e)
					}
				}
			}
		}
	}
	// A counting pass sizes the flat array exactly; the fill pass then
	// writes each list in place and sorts it.
	for d := range pts {
		n := int32(0)
		visit(d, func(int32) { n++ })
		ix.off[d+1] = ix.off[d] + n
	}
	ix.nbr = make([]int32, ix.off[len(pts)])
	for d := range pts {
		out := ix.nbr[ix.off[d]:ix.off[d]]
		visit(d, func(e int32) { out = append(out, e) })
		slices.Sort(out)
	}
	return ix
}

// Neighbors returns device d's neighbour set (read-only; shared). The
// lookup allocates nothing.
func (ix *NeighborIndex) Neighbors(d int) []int32 {
	lo, hi := ix.off[d], ix.off[d+1]
	return ix.nbr[lo:hi:hi]
}

// Position returns device d's static position.
func (ix *NeighborIndex) Position(d int) geo.Point { return ix.pos[d] }

// AvgDegree reports the mean neighbour count (diagnostics/tests).
func (ix *NeighborIndex) AvgDegree() float64 {
	if len(ix.pos) == 0 {
		return 0
	}
	return float64(len(ix.nbr)) / float64(len(ix.pos))
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

	// nbrCells[cellOff[d]:cellOff[d+1]] lists the distinct cells d's
	// neighbours occupy, ascending (flat, like the neighbour index).
	// Static, so each broadcast emits exactly the events it needs
	// without scanning or allocating per-cell grouping state.
	cellOff  []int32
	nbrCells []int32

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
		cellOff:   make([]int32, len(ix.pos)+1),
		sent:      make([]uint64, se.Cells()),
		delivered: make([]uint64, se.Cells()),
		crossed:   make([]uint64, se.Cells()),
	}
	for d := range ix.pos {
		start := len(r.nbrCells)
		for _, n := range ix.Neighbors(d) {
			if c := int32(cellOf[n]); !slices.Contains(r.nbrCells[start:], c) {
				r.nbrCells = append(r.nbrCells, c)
			}
		}
		slices.Sort(r.nbrCells[start:])
		r.cellOff[d+1] = int32(len(r.nbrCells))
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
	nbrs := r.ix.Neighbors(src)
	r.sent[srcCell]++
	for _, dc32 := range r.nbrCells[r.cellOff[src]:r.cellOff[src+1]] {
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
