package predict

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refDistribution is the paper's Eqs. (1)–(3) computed from scratch over
// the history: the longest context (up to k) that has been followed by a
// successor decides, each successor weighted by how often it followed.
func refDistribution(k int, history []int) []Prediction {
	n := len(history)
	for j := min(k, n); j >= 1; j-- {
		ctx := history[n-j:]
		counts := map[int]int{}
		total := 0
		for i := j; i < n; i++ {
			if slices.Equal(history[i-j:i], ctx) {
				counts[history[i]]++
				total++
			}
		}
		if total == 0 {
			continue
		}
		var out []Prediction
		for lm, c := range counts {
			out = append(out, Prediction{Landmark: lm, Probability: float64(c) / float64(total)})
		}
		sortPredictions(out)
		return out
	}
	return nil
}

// walk returns a random landmark sequence with occasional repeats (which
// Observe must ignore). The landmark range reaches past 127, so context
// keys carry multi-byte varints.
func walk(rng *rand.Rand, steps, lms int) []int {
	seq := make([]int, steps)
	for i := range seq {
		if i > 0 && rng.Intn(8) == 0 {
			seq[i] = seq[i-1]
		} else {
			seq[i] = rng.Intn(lms)
		}
	}
	return seq
}

// TestMarkovMatchesReference checks Observe/Predict/Distribution of the
// generic (map-keyed) predictor at orders 1–4 against refDistribution after
// every observation, including the back-off to shorter contexts.
func TestMarkovMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(seed%4)
		lms := 3 + rng.Intn(4)
		if seed%5 == 0 {
			lms = 200
		}
		m := NewMarkov(k)
		if m.Order() != k {
			t.Fatalf("Order = %d, want %d", m.Order(), k)
		}
		var hist []int
		for i, lm := range walk(rng, 120, lms) {
			m.Observe(lm)
			if len(hist) == 0 || hist[len(hist)-1] != lm {
				hist = append(hist, lm)
			}
			want := refDistribution(k, hist)
			if got := m.Distribution(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (k=%d): Distribution %v, want %v", seed, i, k, got, want)
			}
			next, p, ok := m.Predict()
			if ok != (want != nil) || ok && (next != want[0].Landmark || p != want[0].Probability) {
				t.Fatalf("seed %d step %d: Predict (%d, %v, %v), want head of %v", seed, i, next, p, ok, want)
			}
			if m.HistoryLen() != len(hist) || m.Current() != lm {
				t.Fatalf("seed %d step %d: HistoryLen %d Current %d, want %d %d", seed, i, m.HistoryLen(), m.Current(), len(hist), lm)
			}
		}
	}
}

// TestDenseMatchesGeneric checks SetDomain's promise: the dense order-1
// path returns bit-identical predictions to the generic path on every
// query, after every observation.
func TestDenseMatchesGeneric(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lms := 2 + rng.Intn(8)
		if seed%5 == 0 {
			lms = 200
		}
		gen, dense := NewMarkov(1), NewMarkov(1)
		dense.SetDomain(lms)
		if dense.rows == nil {
			t.Fatal("SetDomain did not enable the dense path")
		}
		if _, _, ok := dense.Predict(); ok || dense.Current() != -1 || dense.HistoryLen() != 0 || dense.Distribution() != nil {
			t.Fatal("empty dense predictor predicts or has history")
		}
		for i, lm := range walk(rng, 150, lms) {
			gen.Observe(lm)
			dense.Observe(lm)
			if g, d := gen.Distribution(), dense.Distribution(); !reflect.DeepEqual(g, d) {
				t.Fatalf("seed %d step %d: dense distribution %v, generic %v", seed, i, d, g)
			}
			gl, gp, gok := gen.Predict()
			dl, dp, dok := dense.Predict()
			if gl != dl || gp != dp || gok != dok {
				t.Fatalf("seed %d step %d: dense Predict (%d, %v, %v), generic (%d, %v, %v)", seed, i, dl, dp, dok, gl, gp, gok)
			}
			if gen.HistoryLen() != dense.HistoryLen() || gen.Current() != dense.Current() {
				t.Fatalf("seed %d step %d: dense history %d/%d, generic %d/%d", seed, i,
					dense.HistoryLen(), dense.Current(), gen.HistoryLen(), gen.Current())
			}
			if q := rng.Intn(lms); gen.ProbabilityOf(q) != dense.ProbabilityOf(q) {
				t.Fatalf("seed %d step %d: ProbabilityOf(%d) differs", seed, i, q)
			}
		}
	}
}

// TestSetDomainNoOps checks that SetDomain leaves the generic path in
// place whenever the dense path cannot apply.
func TestSetDomainNoOps(t *testing.T) {
	order2 := NewMarkov(2)
	order2.SetDomain(5)
	started := NewMarkov(1)
	started.Observe(3)
	started.SetDomain(5)
	empty := NewMarkov(1)
	empty.SetDomain(0)
	for name, m := range map[string]*Markov{"order 2": order2, "after Observe": started, "empty domain": empty} {
		if m.rows != nil {
			t.Errorf("%s: SetDomain enabled the dense path", name)
		}
	}
	dense := NewMarkov(1)
	dense.SetDomain(4)
	dense.Observe(1)
	dense.SetDomain(9)
	if dense.n != 4 || len(dense.rows) != 4 || dense.Current() != 1 {
		t.Errorf("second SetDomain reset the dense state: n %d, rows %d, current %d", dense.n, len(dense.rows), dense.Current())
	}
}

// TestMarkovClone checks Clone on both paths: the copy is deeply equal to
// the original, memoized distribution included, and the two then evolve
// independently — the copy follows a fresh predictor fed the same
// sequence, the original is untouched.
func TestMarkovClone(t *testing.T) {
	for _, tc := range []struct {
		name   string
		k, dom int
	}{{"generic order 1", 1, 0}, {"generic order 3", 3, 0}, {"dense", 1, 6}} {
		mk := func() *Markov {
			m := NewMarkov(tc.k)
			m.SetDomain(tc.dom)
			return m
		}
		rng := rand.New(rand.NewSource(7))
		seq := walk(rng, 60, 6)
		m := mk()
		for _, lm := range seq {
			m.Observe(lm)
		}
		m.Distribution() // memoize, so Clone carries dist and distValid
		cp := m.Clone()
		if !reflect.DeepEqual(cp, m) {
			t.Fatalf("%s: clone differs from the original", tc.name)
		}
		before := m.Clone()
		ref := mk()
		for _, lm := range seq {
			ref.Observe(lm)
		}
		for _, lm := range walk(rng, 30, 6) {
			cp.Observe(lm)
			ref.Observe(lm)
			if !reflect.DeepEqual(cp.Distribution(), ref.Distribution()) {
				t.Fatalf("%s: clone diverged from a fresh predictor", tc.name)
			}
		}
		if !reflect.DeepEqual(m, before) {
			t.Errorf("%s: observing on the clone changed the original", tc.name)
		}
	}
}

// TestAccuracyTrackerClone checks the copy is equal and independent.
func TestAccuracyTrackerClone(t *testing.T) {
	a := NewAccuracyTracker()
	a.Record(false)
	cp := a.Clone()
	if !reflect.DeepEqual(cp, a) {
		t.Fatalf("clone %+v, want %+v", *cp, *a)
	}
	cp.Record(true)
	want := accInit * accBeta
	if a.Value() != want || cp.Value() != want*accAlpha {
		t.Errorf("after Record on the clone: original %v, clone %v", a.Value(), cp.Value())
	}
}

// TestQuantileEdges covers the small-input branches of the summary.
func TestQuantileEdges(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("quantile(nil) = %v", q)
	}
	if q := quantile([]float64{0.3}, 0.75); q != 0.3 {
		t.Errorf("quantile of one value = %v", q)
	}
	if q := quantile([]float64{0.1, 0.9}, 1); q != 0.9 {
		t.Errorf("quantile(1) = %v", q)
	}
	if avg, s := EvaluateAll(1, [][]int{{4}, nil}); avg != 0 || s != (AccuracySummary{}) {
		t.Errorf("EvaluateAll without predictions = %v, %+v", avg, s)
	}
}
