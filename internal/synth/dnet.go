package synth

import (
	"math/rand"

	"repro/internal/trace"
)

// DNETConfig parameterises the DNET-like bus trace generator: 34 buses on
// fixed cyclic routes over 18 stop-landmarks in a college-town downtown,
// running every day (the empirical DNET trace excludes weekends and
// holidays, so no activity modulation is applied).
type DNETConfig struct {
	Seed       int64
	Buses      int
	Landmarks  int
	Days       int
	Routes     int     // number of distinct route templates buses share
	NoiseProb  float64 // probability a record logs a neighbouring AP/landmark
	MissProb   float64 // probability a stop record is missing entirely; depot and garage records are never dropped
	GarageProb float64 // probability per transit a bus retires to the depot for ~1.5 days
	TownSize   float64 // side of the square town area in meters
}

// DefaultDNET returns the configuration matching the paper's preprocessed
// DNET trace: 34 buses, 18 landmarks, ~25 days.
func DefaultDNET() DNETConfig {
	return DNETConfig{
		Seed:       2,
		Buses:      34,
		Landmarks:  18,
		Days:       25,
		Routes:     8,
		NoiseProb:  0.15,
		MissProb:   0.25,
		GarageProb: 0.002,
		TownSize:   16000,
	}
}

// DNET generates the DNET-like bus trace. Buses operate 06:00–22:00, dwell
// briefly at each stop and drive between stops at road speed. The
// AP-association noise — a bus logging one of several neighbouring APs
// after a transit — reproduces the paper's finding that bus prediction
// accuracy is lower than student prediction accuracy despite more
// repetitive movement (Section IV-B.3).
// The generator is a thin adapter over the shared topology prologue and the
// resumable per-bus walkers in walker.go, driven bus by bus with one shared
// RNG; DNETSource (stream.go) reuses the same walkers to stream the
// scaled-up scenarios without materializing.
func DNET(cfg DNETConfig) *trace.Trace {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tp := newDNETTopo(cfg, rng)
	var visits []trace.Visit
	for b := 0; b < cfg.Buses; b++ {
		w := newDNETWalker(tp, b, rng)
		for {
			var done bool
			visits, done = w.step(rng, visits)
			if done {
				break
			}
		}
	}
	return buildTrace("DNET", cfg.Buses, tp.pos, visits)
}
