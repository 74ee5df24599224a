package metrics

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestCollectorSummarize(t *testing.T) {
	var c Collector
	c.PacketGenerated()
	c.PacketGenerated()
	c.PacketGenerated()
	c.PacketDelivered(100)
	c.PacketDelivered(300)
	c.PacketDropped(DropTTL)
	c.Forwarded()
	c.ForwardedN(2)
	c.Control(10)
	s := c.Summarize("m", 1000)
	if s.Generated != 3 || s.Delivered != 2 {
		t.Errorf("counts wrong: %+v", s)
	}
	if math.Abs(s.SuccessRate-2.0/3.0) > 1e-12 {
		t.Errorf("success = %v", s.SuccessRate)
	}
	if s.AvgDelay != 200 {
		t.Errorf("avg delay = %v", s.AvgDelay)
	}
	// Overall delay: (100 + 300 + 1000) / 3.
	if math.Abs(s.OverallDelay-1400.0/3.0) > 1e-9 {
		t.Errorf("overall delay = %v", s.OverallDelay)
	}
	if s.Forwarding != 3 || s.TotalCost != 13 {
		t.Errorf("costs = %d, %d", s.Forwarding, s.TotalCost)
	}
	if s.DelayQ[0] != 100 || s.DelayQ[4] != 300 {
		t.Errorf("delayQ = %v", s.DelayQ)
	}
}

func TestDropReasonString(t *testing.T) {
	cases := []struct {
		r    DropReason
		want string
	}{
		{DropTTL, "ttl"}, {DropNoRoom, "noroom"}, {DropEnd, "end"}, {DropReason(9), "unknown"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("DropReason(%d).String() = %q, want %q", c.r, got, c.want)
		}
	}
}

// TestDropAccounting covers the Dropped array for every reason: each
// reason lands in its own slot, the slots sum to generated-delivered,
// and DropNoRoom (raised by capacity-limited stations via
// sim.Config.StationMemory) is a first-class reason, not dead state.
func TestDropAccounting(t *testing.T) {
	var c Collector
	for i := 0; i < 6; i++ {
		c.PacketGenerated()
	}
	c.PacketDelivered(50)
	c.PacketDropped(DropTTL)
	c.PacketDropped(DropTTL)
	c.PacketDropped(DropNoRoom)
	c.PacketDropped(DropEnd)
	c.PacketDropped(DropEnd)
	if c.Dropped[DropTTL] != 2 || c.Dropped[DropNoRoom] != 1 || c.Dropped[DropEnd] != 2 {
		t.Errorf("Dropped = %v, want [2 1 2]", c.Dropped)
	}
	total := 0
	for _, n := range c.Dropped {
		total += n
	}
	if total != c.Generated-c.Delivered {
		t.Errorf("drops (%d) + delivered (%d) != generated (%d)", total, c.Delivered, c.Generated)
	}
}

// TestSummarizeEdges drives Summarize through the degenerate inputs that
// arise in real sweeps: an empty run, a run where every packet fails, a
// delivery at the very deadline (delay == experiment duration), and a
// zero-delay same-landmark delivery. Each row states every derived field
// so a change to the arithmetic cannot hide.
func TestSummarizeEdges(t *testing.T) {
	const exp = trace.Time(1000)
	cases := []struct {
		name      string
		fill      func(c *Collector)
		generated int
		delivered int
		success   float64
		avg       float64
		overall   float64
	}{
		{
			name:      "zero-packets",
			fill:      func(c *Collector) {},
			generated: 0, delivered: 0, success: 0, avg: 0, overall: 0,
		},
		{
			name: "all-dropped",
			fill: func(c *Collector) {
				for i := 0; i < 4; i++ {
					c.PacketGenerated()
				}
				c.PacketDropped(DropTTL)
				c.PacketDropped(DropTTL)
				c.PacketDropped(DropNoRoom)
				c.PacketDropped(DropEnd)
			},
			generated: 4, delivered: 0, success: 0, avg: 0, overall: float64(exp),
		},
		{
			name: "delivered-at-deadline",
			fill: func(c *Collector) {
				c.PacketGenerated()
				c.PacketDelivered(exp) // arrives exactly as the run ends
			},
			generated: 1, delivered: 1, success: 1, avg: float64(exp), overall: float64(exp),
		},
		{
			name: "zero-delay-delivery",
			fill: func(c *Collector) {
				c.PacketGenerated()
				c.PacketGenerated()
				c.PacketDelivered(0) // source and destination at the same landmark
				c.PacketDropped(DropEnd)
			},
			generated: 2, delivered: 1, success: 0.5, avg: 0, overall: float64(exp) / 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Collector
			tc.fill(&c)
			s := c.Summarize("m", exp)
			if s.Generated != tc.generated || s.Delivered != tc.delivered {
				t.Errorf("counts = %d/%d, want %d/%d", s.Generated, s.Delivered, tc.generated, tc.delivered)
			}
			if math.Abs(s.SuccessRate-tc.success) > 1e-12 {
				t.Errorf("success = %v, want %v", s.SuccessRate, tc.success)
			}
			if math.Abs(s.AvgDelay-tc.avg) > 1e-9 {
				t.Errorf("avg delay = %v, want %v", s.AvgDelay, tc.avg)
			}
			if math.Abs(s.OverallDelay-tc.overall) > 1e-9 {
				t.Errorf("overall delay = %v, want %v", s.OverallDelay, tc.overall)
			}
			drops := 0
			for _, n := range c.Dropped {
				drops += n
			}
			if drops != c.Generated-c.Delivered {
				t.Errorf("drops (%d) + delivered (%d) != generated (%d)", drops, c.Delivered, c.Generated)
			}
		})
	}
}

// TestCollectorCloneIndependent checks the warm-state fork contract: a
// clone shares nothing with its parent, so a fork's deliveries cannot
// leak into a sibling's delay distribution.
func TestCollectorCloneIndependent(t *testing.T) {
	var c Collector
	c.PacketGenerated()
	c.PacketDelivered(100)
	cp := c.Clone()
	cp.PacketGenerated()
	cp.PacketDelivered(900)
	if c.Generated != 1 || c.Delivered != 1 {
		t.Errorf("parent mutated by clone: %+v", c)
	}
	if s := c.Summarize("m", 1000); s.AvgDelay != 100 {
		t.Errorf("parent delays mutated: avg = %v", s.AvgDelay)
	}
	if s := cp.Summarize("m", 1000); s.AvgDelay != 500 {
		t.Errorf("clone delays wrong: avg = %v", s.AvgDelay)
	}
}

func TestSummarizeNoDeliveries(t *testing.T) {
	var c Collector
	c.PacketGenerated()
	c.PacketDropped(DropEnd)
	s := c.Summarize("m", 500)
	if s.SuccessRate != 0 || s.OverallDelay != 500 {
		t.Errorf("%+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
	if Quantile([]float64{7}, 0.9) != 7 {
		t.Error("single-element quantile")
	}
}

func TestCI95(t *testing.T) {
	mean, half := CI95([]float64{10, 10, 10, 10})
	if mean != 10 || half != 0 {
		t.Errorf("constant CI = %v ± %v", mean, half)
	}
	mean, half = CI95([]float64{8, 12})
	if mean != 10 || half <= 0 {
		t.Errorf("CI = %v ± %v", mean, half)
	}
	if m, h := CI95([]float64{5}); m != 5 || h != 0 {
		t.Errorf("single-sample CI = %v ± %v", m, h)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(float64(3 * trace.Day)); got != "3.00d" {
		t.Errorf("days = %q", got)
	}
	if got := FormatDuration(float64(5 * trace.Hour)); got != "5.0h" {
		t.Errorf("hours = %q", got)
	}
	if got := FormatDuration(float64(30 * trace.Minute)); got != "30min" {
		t.Errorf("minutes = %q", got)
	}
}
