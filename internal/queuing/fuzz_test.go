package queuing

import (
	"math"
	"testing"

	"repro/internal/markov"
)

// FuzzMapCal checks Algorithm 1's contract on arbitrary inputs: either a
// validation error, or a K in [0, k] that is minimal, keeps the CVR within ρ
// (up to the relative acceptance slack) and reports a positive CVR whenever
// the tail beyond K is positive.
func FuzzMapCal(f *testing.F) {
	f.Add(8, 0.01, 0.09, 0.01)
	f.Add(1, 0.5, 0.5, 0.1)
	f.Add(16, 0.99, 0.01, 0.001)
	f.Add(3, 1.0, 1.0, 0.25)
	f.Fuzz(func(t *testing.T, k int, pOn, pOff, rho float64) {
		if k > 64 {
			k %= 64
		}
		res, err := MapCal(k, pOn, pOff, rho)
		if err != nil {
			return // invalid input rejected, fine
		}
		if k < 1 || rho < 0 || rho >= 1 || !(pOn > 0 && pOn <= 1) || !(pOff > 0 && pOff <= 1) {
			t.Fatalf("invalid input (k=%d p=%v/%v rho=%v) accepted", k, pOn, pOff, rho)
		}
		if res.K < 0 || res.K > k {
			t.Fatalf("K = %d outside [0, %d]", res.K, k)
		}
		if res.K == k {
			if res.CVR != 0 {
				t.Fatalf("full blocks but CVR %v", res.CVR)
			}
		} else {
			if res.CVR > rho*(1+1e-12) {
				t.Fatalf("CVR %v exceeds rho %v", res.CVR, rho)
			}
			if tail := suffixTail(res.Stationary, res.K); tail > 0 && !(res.CVR > 0) {
				t.Fatalf("K = %d < k leaves tail %v, but CVR %v", res.K, tail, res.CVR)
			}
			if res.K >= 1 && suffixTail(res.Stationary, res.K-1) <= rho*(1+1e-12) {
				t.Fatalf("K = %d not minimal", res.K)
			}
		}
		sum := 0.0
		for _, v := range res.Stationary {
			if v < 0 || math.IsNaN(v) {
				t.Fatalf("bad stationary mass %v", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("stationary sums to %v", sum)
		}
	})
}

// FuzzTransientAgreement enforces the transient closed form's acceptance
// bound on arbitrary inputs: the closed-form convolution and the matrix-power
// oracle must produce the same t-step occupancy distribution within 1e-10,
// from any starting busy count. The horizon is capped so the O(t·k²) oracle
// stays cheap per exec; the closed form is t-independent.
func FuzzTransientAgreement(f *testing.F) {
	f.Add(8, 0.01, 0.09, 100, 0)
	f.Add(1, 0.5, 0.5, 1, 1)
	f.Add(16, 0.99, 0.01, 1000, 16)
	f.Add(3, 1.0, 1.0, 7, 2) // periodic λ = −1 chain
	f.Fuzz(func(t *testing.T, k int, pOn, pOff float64, steps, from int) {
		if k > 48 {
			k %= 48
		}
		if steps < 0 {
			steps = -steps
		}
		if steps > 1024 {
			steps %= 1024 // cap the O(t·k²) oracle walk
		}
		fast, err := NewTransient(k, pOn, pOff)
		if err != nil {
			return // invalid input rejected, fine
		}
		if from < 0 {
			from = -from
		}
		from %= k + 1
		oracle, err := newMatrixTransient(k, pOn, pOff)
		if err != nil {
			t.Fatalf("oracle rejected input the fast path accepted: %v", err)
		}
		a, err := fast.OccupancyAt(steps, from)
		if err != nil {
			t.Fatalf("closed form: %v", err)
		}
		b, err := oracle.occupancyAt(steps, from)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		sum := 0.0
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > 1e-10 {
				t.Fatalf("|closed−oracle| = %g at state %d (k=%d p=%v/%v t=%d from=%d)",
					d, i, k, pOn, pOff, steps, from)
			}
			if a[i] < 0 || math.IsNaN(a[i]) {
				t.Fatalf("bad closed-form mass %v at state %d", a[i], i)
			}
			sum += a[i]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("closed-form distribution sums to %v", sum)
		}
	})
}

// FuzzSolverAgreement enforces the closed form's acceptance bound on
// arbitrary inputs: MapCal and the Gaussian oracle must produce the same K
// and stationary distributions within 1e-10.
func FuzzSolverAgreement(f *testing.F) {
	f.Add(8, 0.01, 0.09, 0.01)
	f.Add(2, 0.01, 0.09, 0.01) // the tail = ρ boundary instance
	f.Add(48, 0.99, 0.01, 0.001)
	f.Add(5, 0.7, 0.2, 0.3)
	f.Fuzz(func(t *testing.T, k int, pOn, pOff, rho float64) {
		if k > 48 {
			k %= 48 // keep the O(k³) oracle cheap
		}
		fast, err := MapCal(k, pOn, pOff, rho)
		if err != nil {
			return // invalid input rejected, fine
		}
		// The oracle is only meaningful where the balance system is
		// well-conditioned. The source chain's second eigenvalue is
		// λ = 1 − p_on − p_off; as |λ| → 1 the chain turns periodic
		// (p_on+p_off → 2) or reducible (→ 0) and Gaussian elimination
		// loses all its digits — while the closed form remains an exact
		// invariant measure. Skip that sliver rather than compare noise.
		if lam := 1 - pOn - pOff; math.Abs(lam) > 0.999 {
			t.Skipf("near-degenerate chain (λ=%v), oracle unreliable", lam)
		}
		gauss, err := oracleMapCal(k, pOn, pOff, rho, "gaussian")
		if err != nil {
			t.Fatalf("gaussian failed on input the fast path accepted: %v", err)
		}
		if fast.K != gauss.K {
			// An off-by-one split is tolerated only at a genuine boundary
			// tie, where the tail at the smaller K sits within fp noise of ρ
			// and either answer is defensible.
			lo := fast.K
			if gauss.K < lo {
				lo = gauss.K
			}
			diff := fast.K + gauss.K - 2*lo
			if diff > 1 || math.Abs(markov.TailFromStationary(gauss.Stationary, lo)-rho) > 1e-9 {
				t.Fatalf("K disagrees: closed=%d gaussian=%d (k=%d p=%v/%v rho=%v)",
					fast.K, gauss.K, k, pOn, pOff, rho)
			}
		}
		for i := range fast.Stationary {
			if d := math.Abs(fast.Stationary[i] - gauss.Stationary[i]); d > 1e-10 {
				t.Fatalf("|closed−gaussian| = %g at state %d (k=%d p=%v/%v)",
					d, i, k, pOn, pOff)
			}
		}
	})
}
