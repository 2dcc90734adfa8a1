package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %g", d)
	}
	if s := (Point{1, 2}).String(); s != "(1.0,2.0)" {
		t.Fatalf("string = %q", s)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewField(120, 90)
	if r.Area() != 120*90 || r.Width() != 120 || r.Height() != 90 {
		t.Fatalf("bad field: %+v", r)
	}
	if !r.Contains(Point{60, 45}) || r.Contains(Point{120, 45}) {
		t.Fatal("contains is wrong at boundary")
	}
	if c := r.Center(); c.X != 60 || c.Y != 45 {
		t.Fatalf("center = %v", c)
	}
	if (Rect{}).Valid() {
		t.Fatal("zero rect should be invalid")
	}
}

func TestRectAdjacent(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	right := Rect{10, 0, 20, 10}
	above := Rect{0, 10, 10, 20}
	diag := Rect{10, 10, 20, 20}
	far := Rect{50, 50, 60, 60}
	if !a.Adjacent(right) || !right.Adjacent(a) {
		t.Fatal("horizontally touching rects not adjacent")
	}
	if !a.Adjacent(above) {
		t.Fatal("vertically touching rects not adjacent")
	}
	if a.Adjacent(diag) {
		t.Fatal("corner-touching rects must not be adjacent")
	}
	if a.Adjacent(far) {
		t.Fatal("distant rects must not be adjacent")
	}
}

// totalArea sums the areas of valid regions.
func totalArea(regions []Rect) float64 {
	var a float64
	for _, r := range regions {
		if r.Valid() {
			a += r.Area()
		}
	}
	return a
}

func TestPartitionCoversField(t *testing.T) {
	field := NewField(100, 100)
	for _, n := range []int{1, 2, 3, 4, 7, 14, 16, 100, 1000} {
		regions := Partition(field, n)
		if len(regions) != n {
			t.Fatalf("n=%d got %d regions", n, len(regions))
		}
		if math.Abs(totalArea(regions)-field.Area()) > 1e-6 {
			t.Fatalf("n=%d total area %g != %g", n, totalArea(regions), field.Area())
		}
		for i, r := range regions {
			if !r.Valid() {
				t.Fatalf("n=%d region %d invalid: %+v", n, i, r)
			}
		}
	}
}

func TestPartitionEqualAreasForSquareCounts(t *testing.T) {
	field := NewField(120, 120)
	regions := Partition(field, 16)
	want := field.Area() / 16
	for _, r := range regions {
		if math.Abs(r.Area()-want) > 1e-6 {
			t.Fatalf("region area %g != %g", r.Area(), want)
		}
	}
}

func TestPartitionPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for n=0")
		}
	}()
	Partition(NewField(1, 1), 0)
}

// Property: partition always returns n valid regions whose areas sum to
// the field area.
func TestPartitionProperty(t *testing.T) {
	prop := func(nRaw uint8, wRaw, hRaw uint16) bool {
		n := int(nRaw%64) + 1
		w := float64(wRaw%500) + 1
		h := float64(hRaw%500) + 1
		field := NewField(w, h)
		regions := Partition(field, n)
		if len(regions) != n {
			return false
		}
		return math.Abs(totalArea(regions)-field.Area()) < 1e-6*field.Area()+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRepartitionConservesArea(t *testing.T) {
	field := NewField(120, 120)
	regions := Partition(field, 16)
	alive := make([]bool, 16)
	for i := range alive {
		alive[i] = true
	}
	failed := 5
	alive[failed] = false
	total := totalArea(regions)
	newRegions, gainers := Repartition(regions, alive, failed)
	if len(gainers) == 0 {
		t.Fatal("no neighbours gained area")
	}
	if newRegions[failed].Valid() {
		t.Fatal("failed region still valid")
	}
	if math.Abs(totalArea(newRegions)-total) > 1e-6*total {
		t.Fatalf("area not conserved: %g -> %g", total, totalArea(newRegions))
	}
	for _, gi := range gainers {
		if newRegions[gi].Area() <= regions[gi].Area() {
			t.Fatalf("gainer %d did not grow", gi)
		}
	}
}

func TestRepartitionFallsBackToNearest(t *testing.T) {
	// Two far-apart regions: not adjacent, so nearest absorbs all.
	regions := []Rect{{0, 0, 10, 10}, {100, 100, 110, 110}}
	alive := []bool{true, false}
	newRegions, gainers := Repartition(regions, alive, 1)
	if len(gainers) != 1 || gainers[0] != 0 {
		t.Fatalf("gainers = %v", gainers)
	}
	if math.Abs(newRegions[0].Area()-200) > 1e-6 {
		t.Fatalf("survivor area = %g, want 200", newRegions[0].Area())
	}
}

func TestRepartitionNoSurvivors(t *testing.T) {
	regions := []Rect{{0, 0, 10, 10}}
	alive := []bool{false}
	out, gainers := Repartition(regions, alive, 0)
	if gainers != nil {
		t.Fatalf("gainers = %v, want none", gainers)
	}
	if out[0].Valid() {
		t.Fatal("failed region should be zeroed")
	}
}

func TestBoustrophedonCoversRegion(t *testing.T) {
	region := Rect{0, 0, 100, 50}
	plan := Boustrophedon(region, 7)
	if len(plan.Waypoints) == 0 {
		t.Fatal("empty plan")
	}
	// 8 swaths of 100m plus 7 transitions of 7m.
	if plan.Length < 8*100 {
		t.Fatalf("plan too short: %g", plan.Length)
	}
	for _, wp := range plan.Waypoints {
		if wp.X < region.X0-1e-9 || wp.X > region.X1+1e-9 || wp.Y < region.Y0 || wp.Y > region.Y1 {
			t.Fatalf("waypoint %v outside region", wp)
		}
	}
}

func TestSweepTimeScalesWithSpeed(t *testing.T) {
	region := Rect{0, 0, 100, 100}
	t4 := SweepTime(region, 7, 4)
	t8 := SweepTime(region, 7, 8)
	if math.Abs(t4-2*t8) > 1e-9 {
		t.Fatalf("sweep time not inversely proportional to speed: %g vs %g", t4, t8)
	}
	if SweepTime(region, 7, 0) != 0 {
		t.Fatal("zero speed should return 0")
	}
}

// Property: sweep length decreases (or stays equal) as swath width grows.
func TestBoustrophedonMonotoneProperty(t *testing.T) {
	prop := func(wRaw uint8) bool {
		region := Rect{0, 0, 80, 60}
		w1 := float64(wRaw%20) + 1
		w2 := w1 + 5
		return Boustrophedon(region, w1).Length >= Boustrophedon(region, w2).Length-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
