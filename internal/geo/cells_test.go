package geo

import (
	"math/rand"
	"testing"
)

// TestCellIndexTotalAssignment: every device lands in exactly one cell,
// in-field points in the cell containing them, edge/outside points in
// the nearest cell.
func TestCellIndexTotalAssignment(t *testing.T) {
	field := NewField(100, 100)
	cells := Partition(field, 9)
	rng := rand.New(rand.NewSource(4))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
	}
	// Edge cases: the far corner (outside every half-open cell) and a
	// point beyond the field.
	pts = append(pts, Point{X: 100, Y: 100}, Point{X: 140, Y: 50})
	ix := BuildCellIndex(cells, pts)

	for d, c := range ix.cellOf {
		if c < 0 || c >= len(cells) {
			t.Fatalf("device %d assigned to cell %d of %d", d, c, len(cells))
		}
	}
	for d, p := range pts[:500] {
		if !cells[ix.cellOf[d]].Contains(p) {
			t.Fatalf("in-field device %d at %v assigned to non-containing cell %d", d, p, ix.cellOf[d])
		}
	}
	// The far corner belongs to the last (top-right) cell by nearest
	// center; the out-of-field point to a right-edge cell.
	corner := ix.cellOf[500]
	if got := cells[corner].Center(); got.Dist(Point{100, 100}) > 25 {
		t.Fatalf("corner point assigned to distant cell centred at %v", got)
	}
	if owners := ix.CellOwners(); len(owners) != len(pts) {
		t.Fatalf("CellOwners length %d, want %d", len(owners), len(pts))
	}
}
