package queuing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/markov"
)

func newTransientT(t *testing.T, k int) *Transient {
	t.Helper()
	tr, err := NewTransient(k, paperPOn, paperPOff)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTransientValidation(t *testing.T) {
	if _, err := NewTransient(0, paperPOn, paperPOff); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := NewTransient(4, 0, paperPOff); err == nil {
		t.Error("invalid p_on accepted")
	}
}

func TestDistributionAtZeroIsInitial(t *testing.T) {
	tr := newTransientT(t, 5)
	dist, err := tr.DistributionAt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 1 {
		t.Errorf("t=0 distribution = %v, want all mass on 0", dist)
	}
	custom := []float64{0, 0.5, 0.5, 0, 0, 0}
	dist, err = tr.DistributionAt(0, custom)
	if err != nil {
		t.Fatal(err)
	}
	if dist[1] != 0.5 || dist[2] != 0.5 {
		t.Errorf("custom initial not preserved: %v", dist)
	}
}

func TestDistributionAtValidation(t *testing.T) {
	tr := newTransientT(t, 4)
	if _, err := tr.DistributionAt(-1, nil); err == nil {
		t.Error("negative time accepted")
	}
	if _, err := tr.DistributionAt(3, []float64{1, 0}); err == nil {
		t.Error("wrong-length initial accepted")
	}
	if _, err := tr.DistributionAt(3, []float64{0.5, 0.5, 0.5, 0, 0}); err == nil {
		t.Error("non-normalised initial accepted")
	}
	if _, err := tr.DistributionAt(3, []float64{-0.5, 1.5, 0, 0, 0}); err == nil {
		t.Error("negative initial accepted")
	}
}

func TestDistributionConvergesToStationary(t *testing.T) {
	tr := newTransientT(t, 8)
	bb, _ := markov.NewBusyBlocks(8, paperPOn, paperPOff)
	pi := bb.Stationary()
	dist, err := tr.DistributionAt(3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(dist[i]-pi[i]) > 1e-6 {
			t.Errorf("state %d: transient %v vs stationary %v", i, dist[i], pi[i])
		}
	}
}

func TestDistributionStaysNormalised(t *testing.T) {
	tr := newTransientT(t, 6)
	for _, steps := range []int{1, 7, 50} {
		dist, err := tr.DistributionAt(steps, nil)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range dist {
			if v < -1e-12 {
				t.Errorf("t=%d: negative probability %v", steps, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("t=%d: distribution sums to %v", steps, sum)
		}
	}
}

func TestViolationProbabilityGrowsFromZero(t *testing.T) {
	tr := newTransientT(t, 10)
	res, err := MapCal(10, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := tr.ViolationProbabilityAt(0, res.K)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 0 {
		t.Errorf("violation probability at t=0 is %v, want 0 (all OFF)", p0)
	}
	pLate, err := tr.ViolationProbabilityAt(2000, res.K)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pLate-res.CVR) > 1e-6 {
		t.Errorf("late violation probability %v, want stationary CVR %v", pLate, res.CVR)
	}
}

func TestMixingTime(t *testing.T) {
	tr := newTransientT(t, 8)
	mt, err := tr.MixingTime(0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if mt < 1 {
		t.Errorf("mixing time %d, want ≥ 1 (starts away from stationarity)", mt)
	}
	// The paper observes stabilisation "within 10σ or so"; with these
	// parameters the analytic mixing time should be of that order.
	if mt > 200 {
		t.Errorf("mixing time %d implausibly large for p_on=0.01, p_off=0.09", mt)
	}
	// Tighter tolerance cannot mix faster.
	mtTight, err := tr.MixingTime(0.0001, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if mtTight < mt {
		t.Errorf("tighter tolerance mixed faster: %d < %d", mtTight, mt)
	}
}

func TestMixingTimeValidation(t *testing.T) {
	tr := newTransientT(t, 4)
	if _, err := tr.MixingTime(0, 100); err == nil {
		t.Error("zero tolerance accepted")
	}
	if _, err := tr.MixingTime(0.01, 0); err == nil {
		t.Error("zero maxT accepted")
	}
	if _, err := tr.MixingTime(1e-18, 2); err == nil {
		t.Error("unreachable tolerance within maxT accepted")
	}
}

func TestMeanTimeToViolation(t *testing.T) {
	k := 10
	tr := newTransientT(t, k)
	res, err := MapCal(k, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.MeanTimeToViolation(res.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(h) != res.K+1 {
		t.Fatalf("h has %d entries, want %d", len(h), res.K+1)
	}
	// From fuller states the violation comes sooner.
	for i := 1; i < len(h); i++ {
		if h[i] > h[i-1]+1e-9 {
			t.Errorf("h[%d]=%v > h[%d]=%v — hitting time should shrink with occupancy", i, h[i], i-1, h[i-1])
		}
	}
	// Sanity: with stationary CVR ≈ ρ, violations are rare, so the hitting
	// time from empty should be ≳ 1/ρ steps.
	if h[0] < 1/paperRho/4 {
		t.Errorf("mean time from empty %v implausibly small (CVR %v)", h[0], res.CVR)
	}
}

func TestMeanTimeToViolationMatchesSimulation(t *testing.T) {
	k := 6
	tr := newTransientT(t, k)
	const kBlocks = 2
	h, err := tr.MeanTimeToViolation(kBlocks)
	if err != nil {
		t.Fatal(err)
	}
	bb, _ := markov.NewBusyBlocks(k, paperPOn, paperPOff)
	rng := rand.New(rand.NewSource(17))
	const trials = 3000
	total := 0.0
	for trial := 0; trial < trials; trial++ {
		cur, steps := 0, 0
		for cur <= kBlocks {
			cur = bb.Step(cur, rng)
			steps++
		}
		total += float64(steps)
	}
	emp := total / trials
	if math.Abs(emp-h[0])/h[0] > 0.1 {
		t.Errorf("empirical hitting time %v vs analytic %v", emp, h[0])
	}
}

func TestMeanTimeToViolationValidation(t *testing.T) {
	tr := newTransientT(t, 5)
	if _, err := tr.MeanTimeToViolation(-1); err == nil {
		t.Error("negative kBlocks accepted")
	}
	if _, err := tr.MeanTimeToViolation(6); err == nil {
		t.Error("kBlocks > k accepted")
	}
	if _, err := tr.MeanTimeToViolation(5); err == nil {
		t.Error("kBlocks = k should be rejected (never violates)")
	}
}
