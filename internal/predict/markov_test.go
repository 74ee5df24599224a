package predict

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestPaperWorkedExample follows Section IV-B.1's example: with landmark
// transit history l1 l3 l2 l4 l1 (1-indexed in the paper), the order-1
// predictor's context is l1 and the only observed successor of l1 is l3.
// After observing the final l2 (history l1 l3 l2 l4 l1 l2), the context l2
// has the unique successor l4.
func TestPaperWorkedExample(t *testing.T) {
	m := NewMarkov(1)
	for _, lm := range []int{1, 3, 2, 4, 1} {
		m.Observe(lm)
	}
	if next, p, ok := m.Predict(); !ok || next != 3 || p != 1 {
		t.Errorf("after l1: predict = (%d, %v, %v), want (3, 1, true)", next, p, ok)
	}
	m.Observe(2)
	if next, p, ok := m.Predict(); !ok || next != 4 || p != 1 {
		t.Errorf("after l2: predict = (%d, %v, %v), want (4, 1, true)", next, p, ok)
	}
}

func TestDistributionProbabilities(t *testing.T) {
	m := NewMarkov(1)
	// 0 -> 1 twice, 0 -> 2 once.
	for _, lm := range []int{0, 1, 0, 2, 0, 1, 0} {
		m.Observe(lm)
	}
	d := rowDistribution(m)
	if len(d) != 2 {
		t.Fatalf("distribution = %v", d)
	}
	if d[0].Landmark != 1 || math.Abs(d[0].Probability-2.0/3.0) > 1e-12 {
		t.Errorf("top = %+v, want l1 with 2/3", d[0])
	}
	if d[1].Landmark != 2 || math.Abs(d[1].Probability-1.0/3.0) > 1e-12 {
		t.Errorf("second = %+v, want l2 with 1/3", d[1])
	}
	if next, p, ok := m.Predict(); !ok || next != 1 || p != d[0].Probability {
		t.Errorf("Predict = (%d, %v, %v), want the head %+v", next, p, ok, d[0])
	}
}

func TestOrder2Disambiguates(t *testing.T) {
	// Cycle 0 1 2 0 3 2 ...: after landmark 2, order-1 is ambiguous
	// between 0 and ... actually successor of 2 alternates 0; make the
	// ambiguity at 0: 0->1 after 2->0, 0->3 after ... use sequence
	// (0 1 2)(0 3 2) repeated: successor of 0 alternates 1, 3 depending
	// on the predecessor (2 0 -> 1? both contexts are 2,0...). Use
	// (1 0 2)(3 0 4): successor of 0 is 2 after 1, and 4 after 3.
	m2 := NewMarkov(2)
	seq := []int{1, 0, 2, 3, 0, 4, 1, 0, 2, 3, 0, 4, 1, 0}
	for _, lm := range seq {
		m2.Observe(lm)
	}
	// Context (1, 0): successor always 2.
	if next, p, ok := m2.Predict(); !ok || next != 2 || p != 1 {
		t.Errorf("order-2 predict = (%d, %v, %v), want (2, 1, true)", next, p, ok)
	}
	// Order-1 on the same history is uncertain.
	m1 := NewMarkov(1)
	for _, lm := range seq {
		m1.Observe(lm)
	}
	if _, p, _ := m1.Predict(); p == 1 {
		t.Error("order-1 should be ambiguous at landmark 0")
	}
}

func TestBackoffToShorterContext(t *testing.T) {
	m := NewMarkov(3)
	for _, lm := range []int{0, 1, 2, 0, 1} {
		m.Observe(lm)
	}
	// Full 3-context (2,0,1) unseen with successor; backoff finds 1->2.
	if next, _, ok := m.Predict(); !ok || next != 2 {
		t.Errorf("predict = %d, want 2 via backoff", next)
	}
}

func TestObserveIgnoresDuplicates(t *testing.T) {
	m := NewMarkov(1)
	m.Observe(5)
	m.Observe(5)
	m.Observe(5)
	if !slices.Equal(m.last, []int32{5}) || len(m.rows) != 0 {
		t.Errorf("window %v with %d rows, want [5] with none", m.last, len(m.rows))
	}
}

func TestEmptyPredictor(t *testing.T) {
	m := NewMarkov(1)
	if _, _, ok := m.Predict(); ok {
		t.Error("empty predictor should not predict")
	}
	if len(m.last) != 0 || rowDistribution(m) != nil {
		t.Error("empty predictor has a window or a row")
	}
}

// TestMarkovDegenerateHistories drives the predictor through the
// pathological histories that real traces produce — a node seen only
// once, a node that never leaves its landmark, an arrival at a
// never-before-visited landmark — and pins the contract for each: no
// context means no prediction (ok == false, no row read), never a
// panic or a fabricated probability. The predictor keeps only the last k
// landmarks of the history.
func TestMarkovDegenerateHistories(t *testing.T) {
	cases := []struct {
		name    string
		order   int
		history []int
		wantLen int  // landmarks in the history, repeats dropped
		wantOK  bool // expected Predict ok
		wantLm  int  // expected prediction when ok
	}{
		{name: "no-history", order: 1, history: nil, wantLen: 0, wantOK: false},
		{name: "single-visit", order: 1, history: []int{2}, wantLen: 1, wantOK: false},
		{name: "never-leaves", order: 1, history: []int{4, 4, 4, 4, 4}, wantLen: 1, wantOK: false},
		{name: "arrives-at-unseen-landmark", order: 1, history: []int{0, 1, 0, 9}, wantLen: 4, wantOK: false},
		{name: "history-shorter-than-order", order: 3, history: []int{0, 1}, wantLen: 2, wantOK: false},
		{name: "backoff-from-unseen-pair", order: 2, history: []int{0, 1, 0}, wantLen: 3, wantOK: true, wantLm: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMarkov(tc.order)
			for _, lm := range tc.history {
				m.Observe(lm)
			}
			if len(m.last) != min(tc.wantLen, tc.order) {
				t.Errorf("window %v, want the last %d of %d landmarks", m.last, min(tc.wantLen, tc.order), tc.wantLen)
			}
			lm, p, ok := m.Predict()
			if ok != tc.wantOK {
				t.Fatalf("Predict ok = %v (lm=%d p=%v), want %v", ok, lm, p, tc.wantOK)
			}
			if !ok {
				if d := rowDistribution(m); d != nil {
					t.Errorf("rows hold %v, want none without a matching context", d)
				}
				return
			}
			if lm != tc.wantLm || p <= 0 || p > 1 {
				t.Errorf("Predict = (%d, %v), want landmark %d with 0 < p <= 1", lm, p, tc.wantLm)
			}
		})
	}
}

// TestMarkovUnseenTransitionProbability checks that a transition never
// observed from the current context scores exactly zero even when the
// landmark itself is known from other contexts.
func TestMarkovUnseenTransitionProbability(t *testing.T) {
	m := NewMarkov(1)
	for _, lm := range []int{0, 1, 2, 1, 0} {
		m.Observe(lm)
	}
	// Context is 0; its only observed successor is 1. Landmark 2 exists in
	// the history but never follows 0, so its row has no cell for 2.
	if d := rowDistribution(m); !reflect.DeepEqual(d, []Prediction{{Landmark: 1, Probability: 1}}) {
		t.Errorf("row of context 0 = %v, want only landmark 1 with probability 1", d)
	}
}

func TestNewMarkovPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMarkov(0) did not panic")
		}
	}()
	NewMarkov(0)
}

// Property: every row read back is a valid probability distribution whose
// head is what Predict returns.
func TestDistributionIsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		m := NewMarkov(k)
		for i := 0; i < 5+r.Intn(100); i++ {
			m.Observe(r.Intn(6))
		}
		d := rowDistribution(m)
		next, p, ok := m.Predict()
		if d == nil {
			return !ok
		}
		if !ok || next != d[0].Landmark || p != d[0].Probability {
			return false
		}
		sum := 0.0
		for i, p := range d {
			if p.Probability <= 0 || p.Probability > 1 {
				return false
			}
			if i > 0 && p.Probability > d[i-1].Probability {
				return false // must be sorted decreasing
			}
			sum += p.Probability
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateDeterministicCycle(t *testing.T) {
	// Perfectly cyclic movement: order-1 accuracy approaches 1 after the
	// first lap.
	var seq []int
	for i := 0; i < 40; i++ {
		seq = append(seq, i%4)
	}
	correct, total := Evaluate(1, seq)
	if total == 0 || float64(correct)/float64(total) < 0.9 {
		t.Errorf("cycle accuracy = %d/%d", correct, total)
	}
}

func TestEvaluateAllSummary(t *testing.T) {
	seqs := [][]int{
		{0, 1, 0, 1, 0, 1, 0, 1}, // predictable
		{0, 1, 2, 3, 2, 0, 1, 3}, // noisy
		{5},                      // too short: ignored
	}
	avg, s := EvaluateAll(1, seqs)
	if s.Nodes != 2 {
		t.Errorf("nodes = %d, want 2", s.Nodes)
	}
	if avg < 0 || avg > 1 || s.Min > s.Max || s.Q1 > s.Q3 {
		t.Errorf("summary = %+v avg=%v", s, avg)
	}
}

func TestAccuracyTracker(t *testing.T) {
	a := NewAccuracyTracker()
	if a.Value() != 0.5 {
		t.Errorf("initial = %v, want 0.5", a.Value())
	}
	for i := 0; i < 100; i++ {
		a.Record(true)
	}
	if a.Value() != accCap {
		t.Errorf("after many correct = %v, want cap %v", a.Value(), accCap)
	}
	for i := 0; i < 100; i++ {
		a.Record(false)
	}
	if a.Value() != accFloor {
		t.Errorf("after many incorrect = %v, want floor %v", a.Value(), accFloor)
	}
}
