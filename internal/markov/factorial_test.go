package markov

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// TestBinomialPMFRowMatchesPointwise checks the O(n) recurrence against the
// log-space point evaluation across sizes and probabilities, including the
// extreme-p regimes where a naive from-zero recurrence underflows.
func TestBinomialPMFRowMatchesPointwise(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 64, 200, 500} {
		for _, p := range []float64{0, 1e-9, 0.01, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9, 1} {
			row := BinomialPMFRow(n, p)
			if len(row) != n+1 {
				t.Fatalf("n=%d: row length %d", n, len(row))
			}
			sum := 0.0
			for x, got := range row {
				want := BinomialPMF(n, x, p)
				// The recurrence accumulates O(distance-from-mode · eps)
				// relative error, ~1e-12 at n=500; compare with a relative
				// bound that allows it (the consolidation layer's k ≤ 64
				// stays under 1e-14, well inside the 1e-10 oracle bound).
				if d := math.Abs(got - want); d > 1e-11*(want+1e-300) && d > 1e-16 {
					t.Errorf("n=%d p=%g x=%d: row %g vs pointwise %g", n, p, x, got, want)
				}
				sum += got
			}
			if math.Abs(sum-1) > 1e-10 {
				t.Errorf("n=%d p=%g: PMF sums to %v", n, p, sum)
			}
		}
	}
}

// TestBinomialPMFRowPanics pins the validation contract.
func TestBinomialPMFRowPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{-1, 0.5}, {4, -0.1}, {4, 1.1}, {4, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BinomialPMFRow(%d, %v) did not panic", tc.n, tc.p)
				}
			}()
			BinomialPMFRow(tc.n, tc.p)
		}()
	}
}

// TestLogFactorialMatchesLgamma checks table reads against direct Lgamma for
// indices spanning several growth steps — table values must be bit-identical
// to the per-call computation they replaced.
func TestLogFactorialMatchesLgamma(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 255, 256, 257, 1000, 5000} {
		want, _ := math.Lgamma(float64(n + 1))
		if got := logFactorial(n); got != want {
			t.Errorf("logFactorial(%d) = %v, want Lgamma = %v", n, got, want)
		}
	}
}

// TestLogFactorialConcurrent grows the shared table from many goroutines at
// once; run with -race this guards the atomic publish + mutex growth scheme.
func TestLogFactorialConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2000; n += 7 {
				idx := (n + 131*w) % 3000
				want, _ := math.Lgamma(float64(idx + 1))
				if got := logFactorial(idx); got != want {
					t.Errorf("logFactorial(%d) = %v, want %v", idx, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCumulativeRow pins the CDF helper, including the final-entry clamp that
// keeps inverse-transform sampling in range.
func TestCumulativeRow(t *testing.T) {
	cdf := cumulativeRow([]float64{0.25, 0.25, 0.5})
	want := []float64{0.25, 0.5, 1}
	for i := range want {
		if math.Abs(cdf[i]-want[i]) > 1e-15 {
			t.Fatalf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	// A row whose float sum falls short of 1 must still end at exactly 1.
	short := cumulativeRow([]float64{0.1, 0.1, 0.1})
	if short[2] != 1 {
		t.Fatalf("final CDF entry %v, want exactly 1", short[2])
	}
}

// TestStationaryAgreesWithGaussian is the markov-level statement of the
// closed form's acceptance bound: Stationary vs the Eq. (14) Gaussian solve
// of the transition matrix within 1e-10, across sizes up to the benchmark's
// k=64.
func TestStationaryAgreesWithGaussian(t *testing.T) {
	for _, k := range []int{1, 2, 5, 16, 64} {
		for _, probs := range [][2]float64{{0.01, 0.09}, {0.3, 0.2}, {0.9, 0.05}} {
			bb, err := NewBusyBlocks(k, probs[0], probs[1])
			if err != nil {
				t.Fatal(err)
			}
			fast := bb.Stationary()
			gauss, err := linalg.StationaryDistribution(bb.TransitionMatrix())
			if err != nil {
				t.Fatal(err)
			}
			for i := range fast {
				if d := math.Abs(fast[i] - gauss[i]); d > 1e-10 {
					t.Errorf("k=%d p=%v: |closed−gaussian| = %g at state %d", k, probs, d, i)
				}
			}
		}
	}
}

// TestSampleCDFDistribution checks the inverse-transform sampler reproduces
// the cached PMF: a chi-squared-style max deviation over many draws.
func TestSampleCDFDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pmf := BinomialPMFRow(10, 0.3)
	cdf := cumulativeRow(pmf)
	const draws = 200000
	counts := make([]float64, len(pmf))
	for i := 0; i < draws; i++ {
		counts[sampleCDF(cdf, rng)]++
	}
	for x := range counts {
		got := counts[x] / draws
		if math.Abs(got-pmf[x]) > 0.005 {
			t.Errorf("x=%d: empirical %v vs pmf %v", x, got, pmf[x])
		}
	}
}
