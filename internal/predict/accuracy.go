package predict

import "sort"

// Accuracy-tracker parameters (Section IV-D.4): p_a starts at the medium
// value accInit, is multiplied by accAlpha after a correct prediction and
// by accBeta after an incorrect one, and is clamped to [accFloor, accCap].
const (
	accInit  float64 = 0.5
	accAlpha float64 = 1.1
	accBeta  float64 = 0.8
	accFloor float64 = 0.05
	accCap   float64 = 1.0
)

// AccuracyTracker maintains a node's prediction accuracy p_a as defined in
// Section IV-D.4. The overall transit probability used for carrier
// selection is p_o = p_t * p_a.
type AccuracyTracker struct {
	value float64
}

// NewAccuracyTracker returns a tracker initialised to the paper's medium
// value of 0.5.
func NewAccuracyTracker() *AccuracyTracker {
	return &AccuracyTracker{value: accInit}
}

// Value returns the current accuracy estimate p_a.
func (a *AccuracyTracker) Value() float64 { return a.value }

// Clone returns an independent copy of the tracker.
func (a *AccuracyTracker) Clone() *AccuracyTracker {
	cp := *a
	return &cp
}

// Record updates p_a with the outcome of one prediction.
func (a *AccuracyTracker) Record(correct bool) {
	v := a.value
	if correct {
		v *= accAlpha
	} else {
		v *= accBeta
	}
	if v > accCap {
		v = accCap
	}
	if v < accFloor {
		v = accFloor
	}
	a.value = v
}

// Evaluate measures predict-as-you-go accuracy of an order-k predictor on
// one landmark sequence: at each step (after the context has at least one
// landmark) the predictor guesses the next landmark, the guess is scored,
// and the true landmark is then observed. It returns correct predictions
// over total predictions, as in Fig. 6. Sequences shorter than 2 yield
// (0, 0).
func Evaluate(k int, seq []int) (correct, total int) {
	m := NewMarkov(k)
	for i, lm := range seq {
		if i > 0 {
			if pred, _, ok := m.Predict(); ok {
				total++
				if pred == lm {
					correct++
				}
			}
		}
		m.Observe(lm)
	}
	return correct, total
}

// AccuracySummary holds the five-number summary of per-node accuracy rates
// plotted in Fig. 6(b).
type AccuracySummary struct {
	Min, Q1, Mean, Q3, Max float64
	Nodes                  int // nodes with at least one prediction
}

// EvaluateAll runs Evaluate over every node sequence and returns the
// average accuracy across nodes with at least one prediction plus the
// five-number summary.
func EvaluateAll(k int, seqs [][]int) (avg float64, summary AccuracySummary) {
	var rates []float64
	for _, seq := range seqs {
		c, t := Evaluate(k, seq)
		if t > 0 {
			rates = append(rates, float64(c)/float64(t))
		}
	}
	if len(rates) == 0 {
		return 0, AccuracySummary{}
	}
	sort.Float64s(rates)
	var sum float64
	for _, r := range rates {
		sum += r
	}
	avg = sum / float64(len(rates))
	summary = AccuracySummary{
		Min:   rates[0],
		Q1:    quantile(rates, 0.25),
		Mean:  avg,
		Q3:    quantile(rates, 0.75),
		Max:   rates[len(rates)-1],
		Nodes: len(rates),
	}
	return avg, summary
}

// quantile returns the q-quantile of sorted values using linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
