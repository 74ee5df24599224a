package baselines

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/synth"
	"repro/internal/trace"
)

// TestSmokeAllBaselines runs each baseline on a small trace and checks
// packets flow.
func TestSmokeAllBaselines(t *testing.T) {
	tr := synth.Small(synth.DefaultSmall())
	cfg := sim.DefaultConfig(tr.Duration())
	cfg.TTL = 2 * trace.Day
	cfg.Unit = 12 * trace.Hour
	for _, m := range []Method{NewPROPHET(), NewSimBet(), NewPGR(), NewGeoComm(), NewPER()} {
		t.Run(m.Name(), func(t *testing.T) {
			w := sim.NewWorkload(200, cfg.PacketSize, cfg.TTL)
			res := sim.New(tr, NewBase(m), w, cfg).Run()
			t.Logf("%-8s success=%.2f avgDelay=%.1fh fwd=%d total=%d",
				m.Name(), res.Summary.SuccessRate, res.Summary.AvgDelay/3600,
				res.Summary.Forwarding, res.Summary.TotalCost)
			if res.Summary.Generated == 0 {
				t.Fatal("no packets generated")
			}
			if res.Summary.SuccessRate < 0.1 {
				t.Fatalf("success rate %.2f suspiciously low", res.Summary.SuccessRate)
			}
		})
	}
}

// TestPERZeroMeanStep runs PER on a two-node trace whose only transits
// take no time, so a node's mean per-transit time is zero: scoring must
// fall back to the full step budget instead of dividing by zero.
func TestPERZeroMeanStep(t *testing.T) {
	tr, err := trace.Read(strings.NewReader("# SMALL 2 2\nP 0 0 0\nP 1 100 0\n0 0 0 0\n0 1 0 864000\n1 0 0 864000\n"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(tr.Duration())
	cfg.Seed = 1
	cfg.TTL = 2 * trace.Day
	cfg.Unit = 12 * trace.Hour
	res := sim.New(tr, NewBase(NewPER()), sim.NewWorkload(500, cfg.PacketSize, cfg.TTL), cfg).Run()
	if res.Summary.Generated == 0 {
		t.Fatal("no packets generated")
	}
}
