package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1, 1}, Point{1, 1}, 0},
		{Point{-2, 0}, Point{2, 0}, 4},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := Dist(c.q, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist not symmetric for %v,%v", c.p, c.q)
		}
	}
}

func TestNearest(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {5, 5}}
	if got := Nearest(Point{1, 1}, pts); got != 0 {
		t.Errorf("Nearest = %d, want 0", got)
	}
	if got := Nearest(Point{9, 1}, pts); got != 1 {
		t.Errorf("Nearest = %d, want 1", got)
	}
	if got := Nearest(Point{5, 4}, pts); got != 2 {
		t.Errorf("Nearest = %d, want 2", got)
	}
	if got := Nearest(Point{0, 0}, nil); got != -1 {
		t.Errorf("Nearest on empty = %d, want -1", got)
	}
}

func TestNearestTieBreaksLow(t *testing.T) {
	pts := []Point{{1, 0}, {-1, 0}}
	if got := Nearest(Point{0, 0}, pts); got != 0 {
		t.Errorf("tie should resolve to index 0, got %d", got)
	}
}

// Property: the nearest index always minimises the distance.
func TestNearestIsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{r.Float64() * 100, r.Float64() * 100}
		}
		p := Point{r.Float64() * 100, r.Float64() * 100}
		got := Nearest(p, pts)
		for i := range pts {
			if Dist(p, pts[i]) < Dist(p, pts[got]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVoronoi(t *testing.T) {
	sites := []Point{{0, 0}, {10, 0}}
	samples := []Point{{1, 0}, {9, 0}, {4.9, 0}, {5.1, 0}}
	got := Voronoi(samples, sites)
	want := []int{0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Voronoi[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}
