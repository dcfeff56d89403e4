package queuing

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/linalg"
)

// The closed-form transient engine must be indistinguishable from the
// matrix-power oracle. This file pins (a) the 1e-10 agreement bound across a
// (k, p_on, p_off, t, initial) grid, (b) the ForecastCurve batching, (c) the
// MixingTime spectral skip, and (d) the MeanTimeToViolation sentinel
// discipline.

// transientPair builds the same chain on the closed form and the oracle.
func transientPair(t *testing.T, k int, pOn, pOff float64) (*Transient, *matrixTransient) {
	t.Helper()
	fast, err := NewTransient(k, pOn, pOff)
	if err != nil {
		t.Fatalf("closed form: %v", err)
	}
	oracle, err := newMatrixTransient(k, pOn, pOff)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return fast, oracle
}

// TestTransientSolverAgreement sweeps chains, horizons, and initial
// conditions and demands closed form and oracle distributions agree within
// 1e-10 — the acceptance bound of the fast-path engine.
func TestTransientSolverAgreement(t *testing.T) {
	chains := [][2]float64{
		{0.01, 0.09}, // the paper's cohort, λ = 0.9
		{0.05, 0.15},
		{0.3, 0.4},
		{0.2, 0.8}, // λ = 0
		{0.9, 0.8}, // λ = −0.7
		{1, 1},     // λ = −1, periodic
	}
	for _, k := range []int{1, 2, 5, 16, 33} {
		for _, pr := range chains {
			pOn, pOff := pr[0], pr[1]
			fast, oracle := transientPair(t, k, pOn, pOff)
			initials := [][]float64{nil}
			for _, from := range []int{0, k / 2, k} {
				pm := make([]float64, k+1)
				pm[from] = 1
				initials = append(initials, pm)
			}
			mixed := make([]float64, k+1)
			for i := range mixed {
				mixed[i] = 1 / float64(k+1)
			}
			initials = append(initials, mixed)
			for _, steps := range []int{0, 1, 2, 10, 137, 1000} {
				for ii, initial := range initials {
					name := fmt.Sprintf("k=%d,p=%g/%g,t=%d,init=%d", k, pOn, pOff, steps, ii)
					a, err := fast.DistributionAt(steps, initial)
					if err != nil {
						t.Fatalf("%s: closed: %v", name, err)
					}
					b, err := oracle.distributionAt(steps, initial)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					sum := 0.0
					for i := range a {
						if d := math.Abs(a[i] - b[i]); d > 1e-10 {
							t.Errorf("%s: |closed−oracle| = %g at state %d", name, d, i)
						}
						sum += a[i]
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("%s: closed distribution sums to %v", name, sum)
					}
				}
			}
			// Tail queries ride the same engines; spot-check them too.
			for _, steps := range []int{0, 3, 50} {
				va, err := fast.ViolationProbabilityAt(steps, k/2)
				if err != nil {
					t.Fatal(err)
				}
				vb, err := oracle.violationAt(steps, k/2)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(va - vb); d > 1e-10 {
					t.Errorf("k=%d p=%g/%g t=%d: violation |closed−oracle| = %g", k, pOn, pOff, steps, d)
				}
			}
		}
	}
}

// TestOccupancyAtAgreesAcrossEngines checks the point-mass convenience form
// against DistributionAt and against the oracle.
func TestOccupancyAtAgreesAcrossEngines(t *testing.T) {
	const k = 12
	fast, oracle := transientPair(t, k, 0.05, 0.15)
	for from := 0; from <= k; from++ {
		for _, steps := range []int{0, 1, 7, 64} {
			pm := make([]float64, k+1)
			pm[from] = 1
			want, err := fast.DistributionAt(steps, pm)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fast.OccupancyAt(steps, from)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("from=%d t=%d: OccupancyAt[%d]=%v, DistributionAt=%v", from, steps, i, got[i], want[i])
				}
			}
			ob, err := oracle.occupancyAt(steps, from)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if d := math.Abs(got[i] - ob[i]); d > 1e-10 {
					t.Fatalf("from=%d t=%d: |closed−oracle| = %g at state %d", from, steps, d, i)
				}
			}
		}
	}
	if _, err := fast.OccupancyAt(-1, 0); err == nil {
		t.Error("accepted negative time")
	}
	if _, err := fast.OccupancyAt(1, k+1); err == nil {
		t.Error("accepted from > k")
	}
	if _, err := fast.OccupancyAt(1, -1); err == nil {
		t.Error("accepted negative from")
	}
}

// TestForecastCurveMatchesPointQueries checks the batched curve against
// point queries on a fresh Transient (bit for bit) and on the oracle, and its
// validation.
func TestForecastCurveMatchesPointQueries(t *testing.T) {
	const k, kBlocks = 10, 2
	fast, oracle := transientPair(t, k, 0.05, 0.15)
	curve, err := fast.ForecastCurve(3, 40, kBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 38 {
		t.Fatalf("curve length %d, want 38", len(curve))
	}
	fresh, err := NewTransient(k, 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range curve {
		want, err := fresh.ViolationProbabilityAt(3+i, kBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("curve[%d] = %v, point query = %v", i, got, want)
		}
		o, err := oracle.violationAt(3+i, kBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got - o); d > 1e-10 {
			t.Fatalf("curve[%d]: |closed−oracle| = %g", i, d)
		}
	}
	if _, err := fast.ForecastCurve(-1, 5, kBlocks); err == nil {
		t.Error("accepted negative t0")
	}
	if _, err := fast.ForecastCurve(5, 4, kBlocks); err == nil {
		t.Error("accepted empty span")
	}
}

// TestMixingTimeClosedMatchesOracle demands the closed form return the same
// mixing time as the iterated-TV oracle across chains and tolerances.
func TestMixingTimeClosedMatchesOracle(t *testing.T) {
	chains := [][2]float64{{0.01, 0.09}, {0.05, 0.15}, {0.3, 0.4}, {0.2, 0.8}, {0.9, 0.8}}
	for _, k := range []int{1, 4, 16} {
		for _, pr := range chains {
			fast, oracle := transientPair(t, k, pr[0], pr[1])
			for _, tol := range []float64{0.1, 0.01, 1e-4, 1e-8} {
				got, err := fast.MixingTime(tol, 10_000)
				if err != nil {
					t.Fatalf("k=%d p=%g/%g tol=%g: closed: %v", k, pr[0], pr[1], tol, err)
				}
				want, err := oracle.mixingTime(tol, 10_000)
				if err != nil {
					t.Fatalf("k=%d p=%g/%g tol=%g: oracle: %v", k, pr[0], pr[1], tol, err)
				}
				if got != want {
					t.Errorf("k=%d p=%g/%g tol=%g: closed mixing time %d, oracle %d", k, pr[0], pr[1], tol, got, want)
				}
			}
		}
	}
	// The periodic λ = −1 chain never mixes; both engines must say so.
	fast, oracle := transientPair(t, 4, 1, 1)
	if _, err := fast.MixingTime(0.01, 500); err == nil {
		t.Error("closed form claimed the periodic chain mixes")
	}
	if _, err := oracle.mixingTime(0.01, 500); err == nil {
		t.Error("oracle claimed the periodic chain mixes")
	}
}

// TestMeanTimeToViolationSentinels pins the errors.Is discipline: a full
// reservation wraps ErrNeverViolates, and a numerically absorbing chain (the
// pOn → 0 regression: NewOnOff rejects exactly 0, and a denormal pOn drives
// the escape probabilities below the Gaussian pivot threshold) wraps
// linalg.ErrSingular.
func TestMeanTimeToViolationSentinels(t *testing.T) {
	tr, err := NewTransient(6, 0.05, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.MeanTimeToViolation(6); !errors.Is(err, ErrNeverViolates) {
		t.Fatalf("kBlocks = k: err = %v, want ErrNeverViolates", err)
	}
	if _, err := tr.MeanTimeToViolation(7); err == nil || errors.Is(err, ErrNeverViolates) {
		t.Fatalf("kBlocks > k: err = %v, want plain range error", err)
	}
	if _, err := NewTransient(4, 0, 0.5); err == nil {
		t.Fatal("pOn = 0 accepted (Proposition 1 requires p_on > 0)")
	}
	sing, err := NewTransient(4, 5e-324, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sing.MeanTimeToViolation(2); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("denormal pOn: err = %v, want linalg.ErrSingular", err)
	}
}
