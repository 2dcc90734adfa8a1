package geo

// CellIndex is the static device→cell assignment a sharded simulation
// is cut along: the field is partitioned into cells (Partition computes
// the equal-area cut, exactly as it does for per-drone regions), each
// device is bound at time zero to the cell containing its position, and
// the index answers which cell owns a device in O(1). The assignment is
// deliberately static: shard ownership must not migrate mid-run, or the
// conservative window protocol's "cells interact only through the
// declared-lookahead medium" invariant would silently break.
type CellIndex struct {
	cellOf []int // device -> cell
}

// BuildCellIndex assigns every position to the cell containing it.
// Positions on the field's far edges (or outside every cell — mobile
// devices may start slightly off-grid) fall back to the nearest cell by
// center distance, so the assignment is total.
func BuildCellIndex(cells []Rect, pts []Point) *CellIndex {
	ix := &CellIndex{cellOf: make([]int, len(pts))}
	for d, p := range pts {
		c := -1
		for i, r := range cells {
			if r.Contains(p) {
				c = i
				break
			}
		}
		if c < 0 {
			best := -1.0
			for i, r := range cells {
				if dd := r.Center().Dist(p); best < 0 || dd < best {
					best, c = dd, i
				}
			}
		}
		ix.cellOf[d] = c
	}
	return ix
}

// CellOwners returns the full device→cell slice (read-only; shared).
func (ix *CellIndex) CellOwners() []int { return ix.cellOf }
