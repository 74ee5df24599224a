package validate

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// The paper motivates DTN-FLOW with four observations about real mobility
// traces (Section III-B): O1 — each landmark is frequently visited by only
// a few nodes; O2 — only a few transit links have high bandwidth; O3 —
// matching transit links (both directions of a pair) have similar
// bandwidth; O4 — a link's bandwidth is stable over time. The synthetic
// DART- and DNET-like generators must reproduce all four, or every
// downstream experiment measures the router against traffic the design
// assumptions do not hold for. This file turns O1–O4 into executable
// statistical checks with explicit thresholds.

// Pass bounds for the O1–O4 checks, calibrated against the DART-like and
// DNET-like generators across scales and seeds: loose enough to be
// seed-robust, tight enough that a generator regression (e.g. uniform
// instead of routine-driven mobility) fails clearly.
const (
	// O1 (Fig. 2): the top o1NodeFrac of all nodes must contribute at
	// least o1MinShare of the visits, averaged over the o1Landmarks
	// most-visited landmarks.
	o1NodeFrac  float64 = 0.2
	o1MinShare  float64 = 0.5
	o1Landmarks         = 5
	// O2 (Fig. 3): the top o2LinkFrac of transit links must carry at
	// least o2MinShare of the total bandwidth.
	o2LinkFrac float64 = 0.2
	o2MinShare float64 = 0.4
	// O3 (Fig. 3): the median bandwidth ratio over matching link pairs
	// must be at least o3MinMedian.
	o3MinMedian float64 = 0.4
	// O4 (Fig. 4): the mean coefficient of variation of the per-unit
	// bandwidth series over the o4TopLinks busiest links must be at most
	// o4MaxCV.
	o4TopLinks         = 5
	o4MaxCV    float64 = 1.0
)

// ObsResult is the outcome of one observation check.
type ObsResult struct {
	Name      string  // "O1".."O4"
	Value     float64 // measured statistic
	Threshold float64 // bound it was compared against
	Pass      bool
	Detail    string
}

// String renders the result as one report line.
func (r ObsResult) String() string {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s (measured %.3f, threshold %.3f)", r.Name, status, r.Detail, r.Value, r.Threshold)
}

// CheckObservations runs the four observation checks against a trace.
func CheckObservations(tr *trace.Trace, unit trace.Time) []ObsResult {
	return []ObsResult{
		CheckO1(tr),
		CheckO2(tr, unit),
		CheckO3(tr, unit),
		CheckO4(tr, unit),
	}
}

// CheckO1 verifies the skewed landmark visiting distribution (Fig. 2): at
// the busiest landmarks, a small fraction of the nodes accounts for most
// of the visits.
func CheckO1(tr *trace.Trace) ObsResult {
	top := trace.TopLandmarks(tr, o1Landmarks)
	few := int(math.Ceil(o1NodeFrac * float64(tr.NumNodes)))
	if few < 1 {
		few = 1
	}
	var shares []float64
	for _, lm := range top {
		dist := trace.VisitingDistribution(tr, lm)
		total := 0
		head := 0
		for i, c := range dist {
			total += c
			if i < few {
				head += c
			}
		}
		if total > 0 {
			shares = append(shares, float64(head)/float64(total))
		}
	}
	if len(shares) == 0 {
		return ObsResult{Name: "O1", Detail: "no visits at any landmark", Threshold: o1MinShare}
	}
	mean := meanOf(shares)
	return ObsResult{
		Name:      "O1",
		Value:     mean,
		Threshold: o1MinShare,
		Pass:      mean >= o1MinShare,
		Detail: fmt.Sprintf("top %.0f%% of nodes contribute %.0f%% of visits at the %d busiest landmarks",
			o1NodeFrac*100, mean*100, len(shares)),
	}
}

// CheckO2 verifies bandwidth concentration (Fig. 3): a small fraction of
// the transit links carries most of the total bandwidth.
func CheckO2(tr *trace.Trace, unit trace.Time) ObsResult {
	bws := trace.Bandwidths(tr, unit) // sorted decreasing
	if len(bws) == 0 {
		return ObsResult{Name: "O2", Detail: "no transit links", Threshold: o2MinShare}
	}
	top := int(math.Ceil(o2LinkFrac * float64(len(bws))))
	if top < 1 {
		top = 1
	}
	var head, total float64
	for i, b := range bws {
		total += b.Bandwidth
		if i < top {
			head += b.Bandwidth
		}
	}
	if total == 0 {
		return ObsResult{Name: "O2", Detail: "zero total bandwidth", Threshold: o2MinShare}
	}
	share := head / total
	return ObsResult{
		Name:      "O2",
		Value:     share,
		Threshold: o2MinShare,
		Pass:      share >= o2MinShare,
		Detail: fmt.Sprintf("top %.0f%% of %d links carry %.0f%% of total bandwidth",
			o2LinkFrac*100, len(bws), share*100),
	}
}

// CheckO3 verifies matching-link symmetry (Fig. 3): when both directions
// of a landmark pair see transits, their bandwidths are similar.
func CheckO3(tr *trace.Trace, unit trace.Time) ObsResult {
	ratios := trace.MatchingSymmetry(tr, unit) // sorted ascending
	if len(ratios) == 0 {
		return ObsResult{Name: "O3", Detail: "no matching link pairs", Threshold: o3MinMedian}
	}
	med := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		med = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
	}
	return ObsResult{
		Name:      "O3",
		Value:     med,
		Threshold: o3MinMedian,
		Pass:      med >= o3MinMedian,
		Detail: fmt.Sprintf("median min/max bandwidth ratio over %d matching pairs is %.2f",
			len(ratios), med),
	}
}

// CheckO4 verifies bandwidth stability over time (Fig. 4): the per-unit
// transit counts of the busiest links have a bounded coefficient of
// variation.
func CheckO4(tr *trace.Trace, unit trace.Time) ObsResult {
	bws := trace.Bandwidths(tr, unit)
	n := o4TopLinks
	if n > len(bws) {
		n = len(bws)
	}
	var cvs []float64
	for _, b := range bws[:n] {
		series := trace.BandwidthSeries(tr, b.Link, unit)
		m := meanOf(series)
		if m <= 0 {
			continue
		}
		var ss float64
		for _, x := range series {
			d := x - m
			ss += d * d
		}
		cvs = append(cvs, math.Sqrt(ss/float64(len(series)))/m)
	}
	if len(cvs) == 0 {
		return ObsResult{Name: "O4", Detail: "no busy links to measure", Threshold: o4MaxCV}
	}
	mean := meanOf(cvs)
	return ObsResult{
		Name:      "O4",
		Value:     mean,
		Threshold: o4MaxCV,
		Pass:      mean <= o4MaxCV,
		Detail: fmt.Sprintf("mean bandwidth CV over the %d busiest links is %.2f",
			len(cvs), mean),
	}
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
