// Package metrics implements the four evaluation metrics of Section V-A.1
// — success rate, average delay, forwarding cost and overall (total) cost —
// plus the overall-average-delay variant used in Table VII and the
// 95% confidence intervals the paper reports.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// DropReason classifies why a packet failed.
type DropReason int

const (
	DropTTL    DropReason = iota // time-to-live expired
	DropNoRoom                   // no room at a capacity-limited station (sim.Config.StationMemory)
	DropEnd                      // still in flight when the run ended
	DropChurn                    // carrier churned out of the network mid-run (internal/disrupt)
)

// DropReasonNames maps each DropReason to its wire name; its length is
// the number of reasons (Collector.Dropped and the telemetry drop
// counters are sized from it).
var DropReasonNames = [4]string{"ttl", "noroom", "end", "churn"}

// String returns the reason's wire name.
func (r DropReason) String() string {
	if r >= 0 && int(r) < len(DropReasonNames) {
		return DropReasonNames[r]
	}
	return "unknown"
}

// Collector accumulates raw per-run measurements. The zero value is ready
// to use.
type Collector struct {
	Generated      int
	Delivered      int
	Dropped        [len(DropReasonNames)]int
	delays         []trace.Time
	ForwardingOps  int64 // packet hand-offs between any two entities
	ControlEntries int64 // routing/probability table entries transferred
}

// PacketGenerated records a new packet.
func (c *Collector) PacketGenerated() { c.Generated++ }

// PacketDelivered records a successful delivery with its end-to-end delay.
func (c *Collector) PacketDelivered(delay trace.Time) {
	c.Delivered++
	c.delays = append(c.delays, delay)
}

// PacketDropped records a failed packet.
func (c *Collector) PacketDropped(r DropReason) { c.Dropped[r]++ }

// Forwarded records one packet forwarding operation.
func (c *Collector) Forwarded() { c.ForwardingOps++ }

// ForwardedN records n packet forwarding operations at once (a scheduler
// fast-forwarding repeated transfer cycles).
func (c *Collector) ForwardedN(n int64) { c.ForwardingOps += n }

// Control records the transfer of a control table with n entries; the
// paper counts such a transfer as cost n.
func (c *Collector) Control(n int) { c.ControlEntries += int64(n) }

// Clone returns an independent copy of the collector. Warm-state forks
// start from the warmup's accumulated counts (control-plane cost accrues
// before the measurement window), so each fork clones rather than zeroes.
func (c *Collector) Clone() *Collector {
	cp := *c
	if len(c.delays) > 0 {
		cp.delays = append([]trace.Time(nil), c.delays...)
	} else {
		cp.delays = nil
	}
	return &cp
}

// Summary is the per-run result in the paper's four metrics.
type Summary struct {
	Method       string
	Generated    int
	Delivered    int
	SuccessRate  float64
	AvgDelay     float64 // seconds, over delivered packets
	OverallDelay float64 // seconds, failures counted as full experiment time (Table VII)
	MedianDelay  float64
	Forwarding   int64
	TotalCost    int64
	DelayQ       [5]float64 // min, q1, mean, q3, max of delivered delays (Fig. 16a)
}

// Summarize converts the raw counts into a Summary. experiment is the
// duration charged to unsuccessful packets in the overall delay.
func (c *Collector) Summarize(method string, experiment trace.Time) Summary {
	s := Summary{
		Method:     method,
		Generated:  c.Generated,
		Delivered:  c.Delivered,
		Forwarding: c.ForwardingOps,
		TotalCost:  c.ForwardingOps + c.ControlEntries,
	}
	if c.Generated > 0 {
		s.SuccessRate = float64(c.Delivered) / float64(c.Generated)
	}
	if len(c.delays) > 0 {
		ds := make([]float64, len(c.delays))
		var sum float64
		for i, d := range c.delays {
			ds[i] = float64(d)
			sum += float64(d)
		}
		sort.Float64s(ds)
		s.AvgDelay = sum / float64(len(ds))
		s.MedianDelay = Quantile(ds, 0.5)
		s.DelayQ = [5]float64{ds[0], Quantile(ds, 0.25), s.AvgDelay, Quantile(ds, 0.75), ds[len(ds)-1]}
		failed := c.Generated - c.Delivered
		s.OverallDelay = (sum + float64(failed)*float64(experiment)) / float64(c.Generated)
	} else if c.Generated > 0 {
		s.OverallDelay = float64(experiment)
	}
	return s
}

// Quantile returns the q-quantile of sorted values with linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// CI95 returns the mean and the half-width of the 95% confidence interval
// of xs using the normal approximation (the paper sets the confidence
// interval to 95%). For fewer than two samples the half-width is 0.
func CI95(xs []float64) (mean, half float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, 1.96 * sd / math.Sqrt(float64(len(xs)))
}

// FormatDuration renders a duration in seconds as a compact human unit.
func FormatDuration(sec float64) string {
	switch {
	case sec >= 2*float64(trace.Day):
		return fmt.Sprintf("%.2fd", sec/float64(trace.Day))
	case sec >= 2*float64(trace.Hour):
		return fmt.Sprintf("%.1fh", sec/float64(trace.Hour))
	default:
		return fmt.Sprintf("%.0fmin", sec/float64(trace.Minute))
	}
}
