package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

func newBB(t *testing.T, k int, pOn, pOff float64) *BusyBlocks {
	t.Helper()
	b, err := NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBusyBlocksValidation(t *testing.T) {
	if _, err := NewBusyBlocks(0, 0.1, 0.1); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewBusyBlocks(-3, 0.1, 0.1); err == nil {
		t.Error("k < 0 accepted")
	}
	if _, err := NewBusyBlocks(4, 0, 0.1); err == nil {
		t.Error("p_on = 0 accepted")
	}
	if _, err := NewBusyBlocks(4, 0.1, 1.5); err == nil {
		t.Error("p_off > 1 accepted")
	}
}

func TestBusyBlocksAccessors(t *testing.T) {
	b := newBB(t, 5, 0.01, 0.09)
	if b.K() != 5 {
		t.Errorf("K = %d, want 5", b.K())
	}
	src := b.Source()
	if src.POn != 0.01 || src.POff != 0.09 {
		t.Error("Source returned wrong chain")
	}
	m := b.TransitionMatrix()
	m.Set(0, 0, 99) // must not corrupt internal state
	if b.TransitionProb(0, 0) == 99 {
		t.Error("TransitionMatrix returned internal storage")
	}
}

func TestTransitionMatrixIsStochastic(t *testing.T) {
	for _, k := range []int{1, 2, 5, 10, 16, 30} {
		b := newBB(t, k, 0.01, 0.09)
		if !b.TransitionMatrix().IsStochastic(1e-9) {
			t.Errorf("k=%d: transition matrix not stochastic", k)
		}
	}
}

// For k = 1 the busy-blocks chain must reduce exactly to the ON-OFF chain.
func TestSingleSourceReducesToOnOff(t *testing.T) {
	pOn, pOff := 0.07, 0.21
	b := newBB(t, 1, pOn, pOff)
	if !almost(b.TransitionProb(0, 1), pOn, 1e-12) {
		t.Errorf("p01 = %v, want %v", b.TransitionProb(0, 1), pOn)
	}
	if !almost(b.TransitionProb(1, 0), pOff, 1e-12) {
		t.Errorf("p10 = %v, want %v", b.TransitionProb(1, 0), pOff)
	}
	pi := b.Stationary()
	c, _ := NewOnOff(pOn, pOff)
	if !almost(pi[1], c.StationaryOn(), 1e-12) {
		t.Errorf("pi[1] = %v, want %v", pi[1], c.StationaryOn())
	}
}

// The superposition of k independent identical ON-OFF sources has a binomial
// stationary distribution: π_m = C(k,m)·q^m·(1−q)^{k−m} with q = π_ON.
func TestStationaryIsBinomial(t *testing.T) {
	for _, k := range []int{2, 5, 12, 16} {
		b := newBB(t, k, 0.01, 0.09)
		pi := b.Stationary()
		q := b.Source().StationaryOn()
		for m := 0; m <= k; m++ {
			want := BinomialPMF(k, m, q)
			if math.Abs(pi[m]-want) > 1e-9 {
				t.Errorf("k=%d m=%d: pi = %v, want binomial %v", k, m, pi[m], want)
			}
		}
	}
}

func TestExpectedBusy(t *testing.T) {
	for _, k := range []int{1, 4, 16} {
		b := newBB(t, k, 0.01, 0.09)
		mean := b.ExpectedBusy()
		want := float64(k) * 0.1
		if math.Abs(mean-want) > 1e-9 {
			t.Errorf("k=%d: E[θ] = %v, want %v", k, mean, want)
		}
	}
}

func TestTailProbability(t *testing.T) {
	b := newBB(t, 8, 0.01, 0.09)
	pi := b.Stationary()
	for kb := -1; kb <= 9; kb++ {
		if got, want := b.TailProbability(kb), TailFromStationary(pi, kb); got != want {
			t.Errorf("kBlocks=%d: TailProbability %v != TailFromStationary %v", kb, got, want)
		}
	}
	if TailFromStationary(pi, -1) != 1 {
		t.Error("negative blocks should give tail 1")
	}
	if TailFromStationary(pi, 8) != 0 {
		t.Error("k blocks should give tail 0")
	}
	if TailFromStationary(pi, 100) != 0 {
		t.Error("excess blocks should give tail 0")
	}
}

func TestTailMonotoneDecreasing(t *testing.T) {
	b := newBB(t, 16, 0.01, 0.09)
	prev := 1.1
	for kb := 0; kb <= 16; kb++ {
		tail := b.TailProbability(kb)
		if tail > prev+1e-12 {
			t.Errorf("tail increased at kBlocks=%d: %v > %v", kb, tail, prev)
		}
		prev = tail
	}
}

func TestPowerIterationAgreesWithGaussian(t *testing.T) {
	for _, k := range []int{2, 8, 16} {
		b := newBB(t, k, 0.01, 0.09)
		direct := b.Stationary()
		iter, n, err := linalg.PowerIteration(b.TransitionMatrix(), nil, 1e-14, 500000)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 0 {
			t.Error("expected positive iteration count")
		}
		for m := range direct {
			if math.Abs(direct[m]-iter[m]) > 1e-8 {
				t.Errorf("k=%d m=%d: gaussian %v vs power %v", k, m, direct[m], iter[m])
			}
		}
	}
}

func TestStepStaysInRange(t *testing.T) {
	b := newBB(t, 6, 0.3, 0.4)
	rng := rand.New(rand.NewSource(5))
	cur := 0
	for i := 0; i < 10000; i++ {
		cur = b.Step(cur, rng)
		if cur < 0 || cur > 6 {
			t.Fatalf("step left state space: %d", cur)
		}
	}
}

func TestStepPanicsOutOfRange(t *testing.T) {
	b := newBB(t, 3, 0.1, 0.1)
	rng := rand.New(rand.NewSource(1))
	for _, busy := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Step(%d) did not panic", busy)
				}
			}()
			b.Step(busy, rng)
		}()
	}
}

func TestSimulateOccupancyMatchesStationary(t *testing.T) {
	b := newBB(t, 8, 0.05, 0.15)
	rng := rand.New(rand.NewSource(23))
	emp, err := b.SimulateOccupancy(0, 400000, rng)
	if err != nil {
		t.Fatal(err)
	}
	pi := b.Stationary()
	for m := range pi {
		if math.Abs(emp[m]-pi[m]) > 0.01 {
			t.Errorf("state %d: empirical %v vs analytic %v", m, emp[m], pi[m])
		}
	}
}

func TestSimulateOccupancyErrors(t *testing.T) {
	b := newBB(t, 4, 0.1, 0.1)
	rng := rand.New(rand.NewSource(1))
	if _, err := b.SimulateOccupancy(-1, 100, rng); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := b.SimulateOccupancy(5, 100, rng); err == nil {
		t.Error("start > k accepted")
	}
	if _, err := b.SimulateOccupancy(0, 0, rng); err == nil {
		t.Error("zero steps accepted")
	}
}

// Property: for random (k, p_on, p_off) the transition matrix is stochastic
// and the stationary distribution is the binomial with q = p_on/(p_on+p_off).
func TestPropBusyBlocksStationaryBinomial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		pOn := 0.01 + 0.8*rng.Float64()
		pOff := 0.01 + 0.8*rng.Float64()
		b, err := NewBusyBlocks(k, pOn, pOff)
		if err != nil {
			return false
		}
		if !b.TransitionMatrix().IsStochastic(1e-9) {
			return false
		}
		pi := b.Stationary()
		q := pOn / (pOn + pOff)
		for m := 0; m <= k; m++ {
			if math.Abs(pi[m]-BinomialPMF(k, m, q)) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: row i of the transition matrix has mean i·(1−p_off)+(k−i)·p_on —
// the expected next occupancy from Eq. (8).
func TestPropTransitionRowMean(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(15)
		pOn := 0.01 + 0.9*rng.Float64()
		pOff := 0.01 + 0.9*rng.Float64()
		b, err := NewBusyBlocks(k, pOn, pOff)
		if err != nil {
			return false
		}
		for i := 0; i <= k; i++ {
			mean := 0.0
			for j := 0; j <= k; j++ {
				mean += float64(j) * b.TransitionProb(i, j)
			}
			want := float64(i)*(1-pOff) + float64(k-i)*pOn
			if math.Abs(mean-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
