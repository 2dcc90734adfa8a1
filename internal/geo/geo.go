// Package geo provides the 2-D spatial substrate for edge swarms: field
// geometry, equal-area region partitioning (the paper divides the field
// among drones at time zero, §2.1), failure-time repartitioning to
// neighbouring devices (§4.6, Fig. 10), and boustrophedon coverage
// sweeps with per-frame coverage accounting.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// NewField returns a rectangle of the given dimensions anchored at the
// origin. The paper's baseball-field scenarios use roughly 120×120 m.
func NewField(width, height float64) Rect {
	return Rect{0, 0, width, height}
}

// Width returns X extent.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns Y extent.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Area returns the rectangle's area in m².
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies inside r (half-open).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X < r.X1 && p.Y >= r.Y0 && p.Y < r.Y1
}

// Valid reports whether the rectangle has positive area.
func (r Rect) Valid() bool { return r.X1 > r.X0 && r.Y1 > r.Y0 }

// Adjacent reports whether two rectangles share a boundary segment (not
// merely a corner) — the neighbour relation used when repartitioning a
// failed device's region.
func (r Rect) Adjacent(o Rect) bool {
	overlapX := math.Min(r.X1, o.X1) - math.Max(r.X0, o.X0)
	overlapY := math.Min(r.Y1, o.Y1) - math.Max(r.Y0, o.Y0)
	const eps = 1e-9
	touchX := math.Abs(r.X1-o.X0) < eps || math.Abs(o.X1-r.X0) < eps
	touchY := math.Abs(r.Y1-o.Y0) < eps || math.Abs(o.Y1-r.Y0) < eps
	return (touchX && overlapY > eps) || (touchY && overlapX > eps)
}

// Partition splits the field into n near-equal-area rectangles arranged
// in a grid of ceil(sqrt(n)) columns. Every returned region is valid and
// the union covers the field exactly. n must be positive.
func Partition(field Rect, n int) []Rect {
	if n <= 0 {
		panic("geo: partition count must be positive")
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	out := make([]Rect, 0, n)
	idx := 0
	for row := 0; row < rows && idx < n; row++ {
		// Last row may hold fewer regions; stretch them horizontally.
		inRow := cols
		if remaining := n - idx; remaining < cols {
			inRow = remaining
		}
		y0 := field.Y0 + field.Height()*float64(row)/float64(rows)
		y1 := field.Y0 + field.Height()*float64(row+1)/float64(rows)
		for c := 0; c < inRow; c++ {
			x0 := field.X0 + field.Width()*float64(c)/float64(inRow)
			x1 := field.X0 + field.Width()*float64(c+1)/float64(inRow)
			out = append(out, Rect{x0, y0, x1, y1})
			idx++
		}
	}
	return out
}

// Repartition redistributes the failed region among the still-alive
// regions adjacent to it, by extending each neighbour toward the failed
// region's center (an area-weighted approximation of Fig. 10's equal
// split). If no neighbour is adjacent, the nearest surviving region
// absorbs the whole area. It returns the indices of regions that gained
// area and the updated region list. alive[i] tells whether regions[i]
// still has a working device. regions[failed] is zeroed.
func Repartition(regions []Rect, alive []bool, failed int) ([]Rect, []int) {
	out := make([]Rect, len(regions))
	copy(out, regions)
	lost := out[failed]
	out[failed] = Rect{}

	var neighbours []int
	for i, r := range regions {
		if i == failed || !alive[i] || !r.Valid() {
			continue
		}
		if r.Adjacent(lost) {
			neighbours = append(neighbours, i)
		}
	}
	if len(neighbours) == 0 {
		best, bestD := -1, math.Inf(1)
		for i, r := range regions {
			if i == failed || !alive[i] || !r.Valid() {
				continue
			}
			if d := r.Center().Dist(lost.Center()); d < bestD {
				best, bestD = i, d
			}
		}
		if best == -1 {
			return out, nil
		}
		neighbours = []int{best}
	}

	// Each gaining region's covered area grows by an equal share of the
	// lost area. We model the new assignment as "region + share of lost
	// rect", tracked as extra area via ExtraArea-style bookkeeping: since
	// downstream consumers only need area and a representative sweep
	// length, we extend each neighbour's rect toward the lost rect by
	// growing it to include a proportional slice.
	share := lost.Area() / float64(len(neighbours))
	for _, ni := range neighbours {
		out[ni] = grow(out[ni], lost, share)
	}
	return out, neighbours
}

// grow extends r toward lost until it gains approximately extra m².
func grow(r, lost Rect, extra float64) Rect {
	// Extend along the axis where the two rectangles touch.
	switch {
	case math.Abs(r.X1-lost.X0) < 1e-9 || lost.X0 >= r.X1: // lost to the right
		dx := extra / r.Height()
		r.X1 += dx
	case math.Abs(lost.X1-r.X0) < 1e-9 || lost.X1 <= r.X0: // lost to the left
		dx := extra / r.Height()
		r.X0 -= dx
	case lost.Y0 >= r.Y1: // lost above
		r.Y1 += extra / r.Width()
	default: // lost below (or overlapping): extend downward
		r.Y0 -= extra / r.Width()
	}
	return r
}

// CoveragePlan is an ordered list of waypoints sweeping a region.
type CoveragePlan struct {
	Waypoints []Point
	Length    float64 // total travel distance in meters
}

// Boustrophedon builds a lawnmower sweep of region with swaths of the
// given width (the per-frame camera footprint: the paper's drones cover
// ~6.7 m × 8.75 m per frame). The sweep starts at the region's lower-left
// corner.
func Boustrophedon(region Rect, swathWidth float64) CoveragePlan {
	if swathWidth <= 0 || !region.Valid() {
		return CoveragePlan{}
	}
	var plan CoveragePlan
	nSwaths := int(region.Height()/swathWidth) + 1
	leftToRight := true
	for i := 0; i < nSwaths; i++ {
		y := region.Y0 + (float64(i)+0.5)*swathWidth
		if y > region.Y1 {
			y = region.Y1 - 1e-9
		}
		var a, b Point
		if leftToRight {
			a, b = Point{region.X0, y}, Point{region.X1, y}
		} else {
			a, b = Point{region.X1, y}, Point{region.X0, y}
		}
		plan.Waypoints = append(plan.Waypoints, a, b)
		leftToRight = !leftToRight
	}
	for i := 1; i < len(plan.Waypoints); i++ {
		plan.Length += plan.Waypoints[i-1].Dist(plan.Waypoints[i])
	}
	return plan
}

// SweepTime returns how long covering a region takes at the given speed
// (m/s), using a boustrophedon sweep with the given swath width.
func SweepTime(region Rect, swathWidth, speed float64) float64 {
	if speed <= 0 {
		return 0
	}
	return Boustrophedon(region, swathWidth).Length / speed
}
