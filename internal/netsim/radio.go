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
// delivers to. Construction bins positions on a uniform grid whose side
// is the smallest radio range, so building all n lists costs O(n ·
// local density) instead of the O(n²) all-pairs scan — and a Neighbors
// query afterwards is a zero-allocation slice lookup. The same index
// serves the single-engine path and every cell of a sharded run: range
// queries never scan the whole fleet again.
type NeighborIndex struct {
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
	n := len(pts)
	ix := &NeighborIndex{off: make([]int32, n+1)}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	side, reach := math.Inf(1), 0.0 // reach: Σ π r², for sizing the lists
	for i, p := range pts {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
		if r := rangeM[i]; r > 0 {
			side, reach = math.Min(side, r), reach+math.Pi*r*r
		}
	}
	if math.IsInf(side, 1) {
		return ix // no device can reach anything
	}
	// The bin side is the smallest range, raised so the grid has at most
	// 3n+1 bins: one tiny range in a large field must not allocate a
	// huge grid. Bins are CSR too, bins[binOff[b]:binOff[b+1]] ascending:
	// the transpose of each device's one-entry row holding its bin.
	w, h := maxX-minX, maxY-minY
	side = max(side, w/float64(n), h/float64(n), math.Sqrt(w*h/float64(n)))
	cols, rows := int(w/side)+1, int(h/side)+1
	row, binOf, bins := make([]int32, n+1), make([]int32, n), make([]int32, n)
	for d, p := range pts {
		row[d+1], binOf[d] = int32(d+1), int32(int((p.Y-minY)/side)*cols+int((p.X-minX)/side))
	}
	binOff := transpose(row, binOf, cols*rows, bins)
	// One visit per device appends, bin by bin, every device in range
	// to a buffer sized for a uniform layout's mean degree (at most 64).
	// Only bins the range's bounding box touches can hold one; the box
	// is padded by a hair of a bin so float rounding never drops one.
	const pad = 1e-9
	nbr := make([]int32, 0, n+int(min(reach/max(w*h, 1), 64)*float64(n)))
	for d, p := range pts {
		if r := rangeM[d]; r > 0 {
			x0, x1 := max(int((p.X-r-minX)/side-pad), 0), min(int((p.X+r-minX)/side+pad), cols-1)
			y0, y1 := max(int((p.Y-r-minY)/side-pad), 0), min(int((p.Y+r-minY)/side+pad), rows-1)
			for y := y0; y <= y1; y++ {
				for _, e := range bins[binOff[y*cols+x0]:binOff[y*cols+x1+1]] {
					dx, dy := pts[e].X-p.X, pts[e].Y-p.Y
					if int(e) != d && dx*dx+dy*dy <= r*r {
						nbr = append(nbr, e)
					}
				}
			}
		}
		ix.off[d+1] = int32(len(nbr))
	}
	// Two transposes sort every list: the d→e lists become e→d lists,
	// each ascending in d, which transpose back into nbr ascending in e.
	t := make([]int32, len(nbr))
	transpose(transpose(ix.off, nbr, n, t), t, n, nbr)
	ix.nbr = nbr
	return ix
}

// transpose writes the CSR transpose of rows — row r is
// vals[off[r]:off[r+1]], with values in [0, cols) — into dst by
// counting sort and returns its offsets: row c of the transpose lists,
// ascending, the rows that hold c.
func transpose(off, vals []int32, cols int, dst []int32) []int32 {
	tOff := make([]int32, cols+1)
	for _, c := range vals {
		tOff[c]++
	}
	for c := 1; c <= cols; c++ {
		tOff[c] += tOff[c-1]
	}
	for r := len(off) - 2; r >= 0; r-- {
		for _, c := range vals[off[r]:off[r+1]] {
			tOff[c]--
			dst[tOff[c]] = int32(r)
		}
	}
	return tOff
}

// Neighbors returns device d's neighbour set (read-only; shared). The
// lookup allocates nothing.
func (ix *NeighborIndex) Neighbors(d int) []int32 {
	lo, hi := ix.off[d], ix.off[d+1]
	return ix.nbr[lo:hi:hi]
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
// destination cell through the window barrier. Delivery events are
// records (sender, message), so a broadcast allocates nothing. Built
// over a one-cell executive it degenerates to a plain indexed broadcast
// medium — the single-engine path shares every code path but the
// mailbox.
type Radio struct {
	se      *sim.ShardedEngine
	ix      *NeighborIndex
	cellOf  []int
	latency sim.Time
	deliver Deliver
	kind    uint8 // the delivery record, on every cell

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

// Deliver runs once per receiver dst of a broadcast from src, on the
// receiver's cell (whose engine is eng), so it may freely mutate
// receiver state. msg is the value Broadcast was given: whatever it
// names must stay unchanged until every receiver has run.
type Deliver func(eng *sim.Engine, src, dst int, msg int32)

// NewRadio wires a radio over the executive and registers its delivery
// record on every cell. latencyS is the medium's one-way MAC +
// propagation delay; it must be at least the executive's declared
// lookahead or the conservative windows would be unsound — a violation
// reports the executive's typed *sim.LookaheadError. cellOf maps each
// device to its owning cell (geo.CellIndex.CellOwners of the same cut
// the executive was built with).
func NewRadio(se *sim.ShardedEngine, ix *NeighborIndex, cellOf []int, latencyS float64, deliver Deliver) (*Radio, error) {
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
		se: se, ix: ix, cellOf: cellOf, latency: latencyS, deliver: deliver,
		cellOff:   make([]int32, len(ix.off)),
		sent:      make([]uint64, se.Cells()),
		delivered: make([]uint64, se.Cells()),
		crossed:   make([]uint64, se.Cells()),
	}
	for d := range len(ix.off) - 1 {
		start := len(r.nbrCells)
		for _, n := range ix.Neighbors(d) {
			if c := int32(cellOf[n]); !slices.Contains(r.nbrCells[start:], c) {
				r.nbrCells = append(r.nbrCells, c)
			}
		}
		slices.Sort(r.nbrCells[start:])
		r.cellOff[d+1] = int32(len(r.nbrCells))
	}
	r.kind = se.Handle(func(c *sim.Cell) sim.Handler {
		return func(src, msg int32) { r.deliverIn(c, int(src), msg) }
	})
	return r, nil
}

// Broadcast transmits msg from src to every neighbour in range: the
// radio's Deliver runs once per receiver after the medium latency, on
// the receiver's owning cell. It must be called from src's own cell (an
// event executing there, or setup code before Run).
func (r *Radio) Broadcast(src int, msg int32) {
	srcCell := r.cellOf[src]
	c := r.se.Cell(srcCell)
	at := c.Engine().Now() + r.latency
	r.sent[srcCell]++
	for _, dc := range r.nbrCells[r.cellOff[src]:r.cellOff[src+1]] {
		if int(dc) != srcCell {
			r.crossed[srcCell]++
		}
		c.Post(int(dc), at, r.kind, int32(src), msg)
	}
}

// deliverIn runs the payload for every neighbour of src owned by cell c.
func (r *Radio) deliverIn(c *sim.Cell, src int, msg int32) {
	dc := c.ID()
	for _, n := range r.ix.Neighbors(src) {
		if r.cellOf[n] == dc {
			r.delivered[dc]++
			r.deliver(c.Engine(), src, int(n), msg)
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
