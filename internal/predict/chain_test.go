package predict

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestEvaluateMatchesChainBound feeds Evaluate a long walk of a known
// order-1 chain and checks the accuracy of orders 1, 2 and 3 against the
// closed form μ = Σ_i π_i·max_j P_ij.
//
// Let X_0..X_T be the walk of transition matrix P with stationary law π.
// P has a zero diagonal, so Observe drops nothing and the predictor sees
// the walk as it is. Write m_i = max_j P_ij and δ_i for the gap between
// the largest and the second-largest entry of row i. At step t = 1..T the
// predictor guesses pred_t from X_0..X_{t−1}, and hit_t = 1[X_t = pred_t].
// Then
//
//		hits − Tμ = Σ_t D_t − R + g(X_0) − g(X_T), where
//
//	  - g solves the Poisson equation g − Pg = m − μ (g = Σ_n Pⁿ(m − μ));
//	  - D_t = hit_t − P(X_{t−1}, pred_t) + g(X_t) − (Pg)(X_{t−1}). Given the
//	    past, D_t is a function of X_t with mean zero and a range of at most
//	    c = 1 + range(g), so Azuma–Hoeffding gives
//	    P(|Σ_t D_t| ≥ a) ≤ 2·exp(−2a²/(T·c²)) for every predictor;
//	  - R = Σ_t (m(X_{t−1}) − P(X_{t−1}, pred_t)) ≥ 0 is the regret of not
//	    guessing the row's argmax; a step without a guess counts as a guess
//	    with P = 0, so its regret is at most 1.
//
// Hence hits ≤ Tμ + a + range(g) for any predictor. For the Markov
// predictor R is small. A step without a guess happens only at the first
// visit to a landmark, so there are at most L of them. Every other guess
// is the argmax of the row of one context ending at X_{t−1}. By the strong
// Markov property the successors counted in that row are i.i.d. draws from
// row X_{t−1} of P, and the row gains one count each time it is used.
// Hoeffding on the ±1 differences between the best cell and any other
// bounds the chance that a row of n counts misranks its argmax by
// (L−1)·exp(−n·δ²/2), with δ = min_i δ_i; the bound counts a tie as a
// misranking. With C = Σ_{j≤k} L(L−1)^{j−1}
// possible contexts, a union bound over contexts and n ≥ n0 makes every
// row of n0 or more counts rank right, except with probability at most
// C·(L−1)·exp(−n0·δ²/2)/(1 − exp(−δ²/2)). Outside that event
// R ≤ L + C·n0, so hits ≥ Tμ − a − range(g) − L − C·n0.
//
// Both failure probabilities are set to 1e-9 below; the walk's seed is
// fixed, so the check is deterministic.
func TestEvaluateMatchesChainBound(t *testing.T) {
	P := [][]float64{
		{0, 0.8, 0.1, 0.1},
		{0.05, 0, 0.75, 0.2},
		{0.9, 0.05, 0, 0.05},
		{0.7, 0.15, 0.15, 0},
	}
	const (
		steps = 1_000_000
		fail  = 1e-9
	)
	L := len(P)
	m, gap := make([]float64, L), math.Inf(1)
	for i, row := range P {
		first, second := 0.0, 0.0
		for _, p := range row {
			if p > first {
				first, second = p, first
			} else if p > second {
				second = p
			}
		}
		m[i], gap = first, min(gap, first-second)
	}
	pi := stationary(P)
	mu := dot(pi, m)
	g := poisson(P, m, mu)
	rangeG := slices.Max(g) - slices.Min(g)

	rng := rand.New(rand.NewSource(1))
	seq := make([]int, steps+1)
	for t := 1; t <= steps; t++ {
		u, row := rng.Float64(), P[seq[t-1]]
		j := 0
		for ; j < L-1 && u >= row[j]; j++ {
			u -= row[j]
		}
		seq[t] = j
	}

	c := 1 + rangeG
	a := c * math.Sqrt(steps*math.Log(2/fail)/2)
	upper := steps*mu + a + rangeG
	for k := 1; k <= 3; k++ {
		contexts, width := 0, L
		for j := 1; j <= k; j++ {
			contexts += width
			width *= L - 1
		}
		tail := 1 - math.Exp(-gap*gap/2)
		n0 := math.Ceil(2 / (gap * gap) * math.Log(float64(contexts*(L-1))/(tail*fail)))
		lower := steps*mu - a - rangeG - float64(L) - float64(contexts)*n0

		correct, total := Evaluate(k, seq)
		if total < steps-L || total > steps {
			t.Errorf("k=%d: %d guesses in %d steps, want at least %d", k, total, steps, steps-L)
		}
		if h := float64(correct); h < lower || h > upper {
			t.Errorf("k=%d: %d hits in %d steps (accuracy %.4f), want within [%.0f, %.0f] around Tμ = %.0f (μ = %.4f)",
				k, correct, steps, h/steps, lower, upper, steps*mu, mu)
		}
	}
}

// stationary returns π = πP by power iteration; P must be irreducible and
// aperiodic.
func stationary(P [][]float64) []float64 {
	pi := make([]float64, len(P))
	for i := range pi {
		pi[i] = 1 / float64(len(P))
	}
	for it := 0; it < 10_000; it++ {
		next := make([]float64, len(P))
		for i, row := range P {
			for j, p := range row {
				next[j] += pi[i] * p
			}
		}
		pi = next
	}
	return pi
}

// poisson returns g = Σ_n Pⁿ(f − μ), the solution of g − Pg = f − μ with
// π·g = 0; the series converges geometrically because π·(f − μ) = 0.
func poisson(P [][]float64, f []float64, mu float64) []float64 {
	h := make([]float64, len(f)) // Pⁿ(f − μ)
	for i := range h {
		h[i] = f[i] - mu
	}
	g := append([]float64(nil), h...)
	for it := 0; it < 10_000; it++ {
		next := make([]float64, len(h))
		for i, row := range P {
			next[i] = dot(row, h)
		}
		h = next
		for i := range g {
			g[i] += h[i]
		}
	}
	return g
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
