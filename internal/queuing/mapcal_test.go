package queuing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/markov"
)

const (
	paperPOn  = 0.01
	paperPOff = 0.09
	paperRho  = 0.01
)

func TestMapCalValidation(t *testing.T) {
	if _, err := MapCal(0, paperPOn, paperPOff, paperRho); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := MapCal(-2, paperPOn, paperPOff, paperRho); err == nil {
		t.Error("k < 0 accepted")
	}
	if _, err := MapCal(4, paperPOn, paperPOff, -0.1); err == nil {
		t.Error("rho < 0 accepted")
	}
	if _, err := MapCal(4, paperPOn, paperPOff, 1); err == nil {
		t.Error("rho = 1 accepted")
	}
	if _, err := MapCal(4, 0, paperPOff, paperRho); err == nil {
		t.Error("p_on = 0 accepted")
	}
}

func TestMapCalSingleVM(t *testing.T) {
	// One VM with π_ON = 0.1 > ρ = 0.01 needs its own block.
	res, err := MapCal(1, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Errorf("K = %d, want 1", res.K)
	}
	if res.Reduced() {
		t.Error("single VM should not report a reduction")
	}
	if res.CVR != 0 {
		t.Errorf("CVR with full blocks = %v, want 0", res.CVR)
	}
}

func TestMapCalSingleVMLaxRho(t *testing.T) {
	// With ρ above π_ON the spike can be ignored entirely: K = 0.
	res, err := MapCal(1, paperPOn, paperPOff, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 0 {
		t.Errorf("K = %d, want 0", res.K)
	}
	if math.Abs(res.CVR-0.1) > 1e-9 {
		t.Errorf("CVR = %v, want 0.1 (stationary ON probability)", res.CVR)
	}
}

func TestMapCalPaperSettings(t *testing.T) {
	// With the paper's parameters (π_ON = 0.1), the binomial tail thins
	// quickly, so K should be well below k for k = 16 and CVR ≤ ρ.
	res, err := MapCal(16, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reduced() {
		t.Fatalf("expected reduction for k=16, got K=%d", res.K)
	}
	if res.CVR > paperRho {
		t.Errorf("CVR %v exceeds rho %v", res.CVR, paperRho)
	}
	// Hand-check against the binomial CDF: K is minimal.
	q := paperPOn / (paperPOn + paperPOff)
	cdf := 0.0
	wantK := 16
	for m := 0; m <= 16; m++ {
		cdf += markov.BinomialPMF(16, m, q)
		if cdf >= 1-paperRho {
			wantK = m
			break
		}
	}
	if res.K != wantK {
		t.Errorf("K = %d, want %d from binomial CDF", res.K, wantK)
	}
}

func TestMapCalMinimality(t *testing.T) {
	// CVR with K blocks ≤ ρ, and with K−1 blocks > ρ (when K ≥ 1 and K<k),
	// up to the relative acceptance slack: at k=2 the tail beyond one block
	// is q² = ρ exactly, and its float sum lands one ulp above ρ.
	for _, k := range []int{2, 5, 10, 16, 24} {
		res, err := MapCal(k, paperPOn, paperPOff, paperRho)
		if err != nil {
			t.Fatal(err)
		}
		if res.K < k && res.CVR > paperRho*(1+1e-12) {
			t.Errorf("k=%d: CVR %v > rho with K=%d", k, res.CVR, res.K)
		}
		if res.K >= 1 {
			below := markov.TailFromStationary(res.Stationary, res.K-1)
			if res.K < k && below <= paperRho {
				t.Errorf("k=%d: K=%d not minimal, K-1 already gives CVR %v", k, res.K, below)
			}
		}
	}
}

func TestMapCalStationaryIsDistribution(t *testing.T) {
	res, err := MapCal(12, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stationary) != 13 {
		t.Fatalf("stationary length %d, want 13", len(res.Stationary))
	}
	sum := 0.0
	for _, v := range res.Stationary {
		if v < 0 {
			t.Errorf("negative stationary mass %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("stationary sums to %v", sum)
	}
}

func TestMapCalHighOnProbabilityNoReduction(t *testing.T) {
	// Sources that are almost always ON leave no room to share blocks under
	// a tight rho: K should stay at (or very near) k.
	res, err := MapCal(6, 0.9, 0.05, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 6 {
		// All 6 sources ON has probability ~0.53 ≫ rho, so any K < 6 violates.
		t.Errorf("K = %d, want 6 (no reduction possible)", res.K)
	}
	if res.CVR != 0 {
		t.Errorf("CVR = %v, want 0 at K = k", res.CVR)
	}
}

// MapCal reports as its CVR the tail its acceptance test compared with ρ, the
// suffix sum Σ_{m>K} π_m. The head-mass form 1 − Σ_{m≤K} π_m cannot resolve a
// tail below one ulp of 1: it reported 0 for the first case's positive tail,
// and 4.4e-16 > ρ for the second case's tail, which meets ρ.
func TestMapCalReportsAcceptedTail(t *testing.T) {
	cases := []struct {
		k         int
		pOn, pOff float64
		rho       float64
		wantK     int
	}{
		{8, 1e-4, 0.09, 1e-15, 5},     // tail ≈ 5.2e-17
		{128, 0.01, 0.01, 1e-18, 111}, // tail ≈ 3.2e-19
	}
	for _, tc := range cases {
		res, err := MapCal(tc.k, tc.pOn, tc.pOff, tc.rho)
		if err != nil {
			t.Fatal(err)
		}
		if res.K != tc.wantK {
			t.Errorf("k=%d rho=%g: K = %d, want %d", tc.k, tc.rho, res.K, tc.wantK)
		}
		tail := suffixTail(res.Stationary, res.K)
		if res.CVR != tail {
			t.Errorf("k=%d rho=%g: CVR = %g, tail beyond K = %g", tc.k, tc.rho, res.CVR, tail)
		}
		if !(res.CVR > 0) || res.CVR > tc.rho*(1+1e-12) {
			t.Errorf("k=%d rho=%g: CVR = %g, want in (0, rho]", tc.k, tc.rho, res.CVR)
		}
	}
}

func TestNewMappingTableValidation(t *testing.T) {
	if _, err := NewMappingTable(0, paperPOn, paperPOff, paperRho); err == nil {
		t.Error("d = 0 accepted")
	}
	if _, err := NewMappingTable(4, 0, paperPOff, paperRho); err == nil {
		t.Error("invalid p_on accepted")
	}
}

func TestMappingTableMatchesMapCal(t *testing.T) {
	const d = 16
	tab, err := NewMappingTable(d, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	if tab.MaxVMs() != d {
		t.Errorf("MaxVMs = %d, want %d", tab.MaxVMs(), d)
	}
	if tab.Blocks(0) != 0 {
		t.Errorf("mapping(0) = %d, want 0", tab.Blocks(0))
	}
	for k := 1; k <= d; k++ {
		res, err := MapCal(k, paperPOn, paperPOff, paperRho)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Blocks(k) != res.K {
			t.Errorf("mapping(%d) = %d, want %d", k, tab.Blocks(k), res.K)
		}
		if tab.Savings(k) != k-res.K {
			t.Errorf("Savings(%d) = %d, want %d", k, tab.Savings(k), k-res.K)
		}
	}
	if tab.Rho() != paperRho || tab.POn() != paperPOn || tab.POff() != paperPOff {
		t.Error("table accessors return wrong parameters")
	}
}

func TestMappingTablePanicsOutOfRange(t *testing.T) {
	tab, _ := NewMappingTable(4, paperPOn, paperPOff, paperRho)
	for _, k := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Blocks(%d) did not panic", k)
				}
			}()
			tab.Blocks(k)
		}()
	}
}

func TestMappingTableMonotone(t *testing.T) {
	tab, err := NewMappingTable(32, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 32; k++ {
		if tab.Blocks(k) < tab.Blocks(k-1) {
			t.Errorf("mapping not monotone at k=%d: %d < %d", k, tab.Blocks(k), tab.Blocks(k-1))
		}
		if tab.Blocks(k) > k {
			t.Errorf("mapping(%d) = %d exceeds k", k, tab.Blocks(k))
		}
	}
}

// Property: for random parameters, MapCal returns K ∈ [0, k], its CVR is at
// most rho whenever K < k, exactly 0 when K = k, and K is minimal.
func TestPropMapCalCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		pOn := 0.01 + 0.5*rng.Float64()
		pOff := 0.01 + 0.5*rng.Float64()
		rho := 0.001 + 0.2*rng.Float64()
		res, err := MapCal(k, pOn, pOff, rho)
		if err != nil {
			return false
		}
		if res.K < 0 || res.K > k {
			return false
		}
		if res.K == k {
			return res.CVR == 0
		}
		if res.CVR > rho*(1+1e-12) {
			return false
		}
		if res.K >= 1 && markov.TailFromStationary(res.Stationary, res.K-1) <= rho {
			return false // not minimal
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: K is non-decreasing in k for fixed parameters (adding VMs never
// shrinks the reservation).
func TestPropMapCalMonotoneInK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pOn := 0.01 + 0.3*rng.Float64()
		pOff := 0.01 + 0.3*rng.Float64()
		rho := 0.005 + 0.1*rng.Float64()
		prev := 0
		for k := 1; k <= 12; k++ {
			res, err := MapCal(k, pOn, pOff, rho)
			if err != nil || res.K < prev {
				return false
			}
			prev = res.K
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
