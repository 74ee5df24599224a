package predict

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// Prediction is one candidate next landmark with its probability.
type Prediction struct {
	Landmark    int
	Probability float64
}

// sortPredictions orders by probability descending, landmark ascending —
// a strict total order, since landmarks are unique.
func sortPredictions(out []Prediction) {
	slices.SortFunc(out, func(a, b Prediction) int {
		if a.Probability != b.Probability {
			if a.Probability > b.Probability {
				return -1
			}
			return 1
		}
		return a.Landmark - b.Landmark
	})
}

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

// rowDistribution reads the distribution Predict draws from straight out of
// the context rows: the row of the longest current context that has one,
// every successor cell weighted by its count over the row total.
func rowDistribution(m *Markov) []Prediction {
	for j := len(m.last); j >= 1; j-- {
		r := m.cur[j-1]
		if r < 0 {
			continue
		}
		rw := m.rows[r]
		var out []Prediction
		for c := rw.head; c >= 0; c = m.cells[c].next {
			out = append(out, Prediction{Landmark: int(m.cells[c].lm), Probability: float64(m.cells[c].n) / float64(rw.tot)})
		}
		sortPredictions(out)
		return out
	}
	return nil
}

// walk returns a random landmark sequence with occasional repeats (which
// Observe must ignore).
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

// TestMarkovMatchesReference checks the predictor at orders 1–4 against
// refDistribution after every observation: the rows of the backed-off
// context hold exactly the reference counts, and Predict returns the
// reference head bit for bit, including the back-off to shorter contexts
// and landmarks from 128 up (which once needed multi-byte context keys).
func TestMarkovMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		checkAgainstReference(t, seed, 1+int(seed%4))
	}
}

// TestDenseMatchesGeneric checks the order-1 predictor the router runs,
// whose context key is the landmark itself, against the from-scratch
// reference on every query after every observation, over 2–9 landmarks
// and over 200.
func TestDenseMatchesGeneric(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		checkAgainstReference(t, seed, 1)
	}
}

// checkAgainstReference replays a random walk seeded by seed on an order-k
// predictor and compares its rows, Predict and window with refDistribution
// after every observation. Every fifth seed walks 200 landmarks, the others
// 2–9.
func checkAgainstReference(t *testing.T, seed int64, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lms := 2 + rng.Intn(8)
	if seed%5 == 0 {
		lms = 200
	}
	m := NewMarkov(k)
	if m.Order() != k {
		t.Fatalf("Order = %d, want %d", m.Order(), k)
	}
	if _, _, ok := m.Predict(); ok || len(m.last) != 0 || rowDistribution(m) != nil {
		t.Fatal("empty predictor predicts or has a window")
	}
	var hist []int
	for i, lm := range walk(rng, 150, lms) {
		m.Observe(lm)
		if len(hist) == 0 || hist[len(hist)-1] != lm {
			hist = append(hist, lm)
		}
		want := refDistribution(k, hist)
		if got := rowDistribution(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d step %d (k=%d): rows hold %v, want %v", seed, i, k, got, want)
		}
		next, p, ok := m.Predict()
		if ok != (want != nil) || ok && (next != want[0].Landmark || p != want[0].Probability) {
			t.Fatalf("seed %d step %d (k=%d): Predict (%d, %v, %v), want head of %v", seed, i, k, next, p, ok, want)
		}
		if w := hist[max(0, len(hist)-k):]; !slices.Equal(m.last, toInt32(w)) {
			t.Fatalf("seed %d step %d (k=%d): window %v, want %v", seed, i, k, m.last, w)
		}
	}
}

func toInt32(s []int) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[i] = int32(v)
	}
	return out
}

// TestMarkovClone checks the copy is deeply equal to the original and that
// the two then evolve independently: the copy follows a fresh predictor fed
// the same sequence, the original stays equal to one fed its own.
func TestMarkovClone(t *testing.T) {
	fed := func(k int, seq []int) *Markov {
		m := NewMarkov(k)
		for _, lm := range seq {
			m.Observe(lm)
		}
		return m
	}
	for _, k := range []int{1, 3} {
		rng := rand.New(rand.NewSource(7))
		seq := walk(rng, 60, 6)
		m := fed(k, seq)
		cp := m.Clone()
		if !reflect.DeepEqual(cp, m) {
			t.Fatalf("k=%d: clone differs from the original", k)
		}
		ref := fed(k, seq)
		for _, lm := range walk(rng, 30, 6) {
			cp.Observe(lm)
			ref.Observe(lm)
			if !reflect.DeepEqual(rowDistribution(cp), rowDistribution(ref)) {
				t.Fatalf("k=%d: clone diverged from a fresh predictor", k)
			}
		}
		if !reflect.DeepEqual(m, fed(k, seq)) {
			t.Errorf("k=%d: observing on the clone changed the original", k)
		}
	}
	if cp := NewMarkov(2).Clone(); !reflect.DeepEqual(cp, NewMarkov(2)) {
		t.Errorf("clone of an empty predictor %+v", cp)
	}
}

// TestMarkovConcurrentClone clones one frozen predictor from several
// goroutines, as warm-state forks do; under -race this checks that Clone
// only reads its receiver.
func TestMarkovConcurrentClone(t *testing.T) {
	m := NewMarkov(2)
	for _, lm := range walk(rand.New(rand.NewSource(3)), 200, 9) {
		m.Observe(lm)
	}
	want := m.Clone()
	clones := make([]*Markov, 4)
	var wg sync.WaitGroup
	for i := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clones[i] = m.Clone()
		}()
	}
	wg.Wait()
	for i, cp := range clones {
		if !reflect.DeepEqual(cp, want) || !reflect.DeepEqual(m, want) {
			t.Fatalf("clone %d differs from the original", i)
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
