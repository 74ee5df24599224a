// Package geo provides the small amount of planar geometry DTN-FLOW needs:
// landmark positions, distances, and nearest-landmark (Voronoi) subarea
// assignment used by the subarea-division rules of Section IV-A.2.
package geo

import "math"

// Point is a position in the plane, in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q in meters.
func Dist(p, q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Nearest returns the index in pts of the point closest to p, or -1 when
// pts is empty. Ties resolve to the lowest index, which keeps subarea
// assignment deterministic.
func Nearest(p Point, pts []Point) int {
	best, bestD := -1, math.Inf(1)
	for i, q := range pts {
		if d := Dist(p, q); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Voronoi assigns every point in samples to its nearest site, implementing
// the paper's subarea rules: one landmark per subarea, the space between two
// landmarks split evenly, no overlap. It returns the assignment indices.
func Voronoi(samples []Point, sites []Point) []int {
	out := make([]int, len(samples))
	for i, s := range samples {
		out[i] = Nearest(s, sites)
	}
	return out
}
