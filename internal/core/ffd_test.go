package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
)

func mkVM(id int, rb, re float64) cloud.VM {
	return cloud.VM{ID: id, POn: 0.01, POff: 0.09, Rb: rb, Re: re}
}

func mkPool(n int, capacity float64) []cloud.PM {
	pms := make([]cloud.PM, n)
	for i := range pms {
		pms[i] = cloud.PM{ID: i, Capacity: capacity}
	}
	return pms
}

// randomFleet generates the Fig. 5(a) setting: Rb, Re ∈ [2,20], C ∈ [80,100].
func randomFleet(rng *rand.Rand, n int) ([]cloud.VM, []cloud.PM) {
	vms := make([]cloud.VM, n)
	for i := range vms {
		vms[i] = mkVM(i, 2+18*rng.Float64(), 2+18*rng.Float64())
	}
	pms := make([]cloud.PM, n) // always enough PMs
	for i := range pms {
		pms[i] = cloud.PM{ID: i, Capacity: 80 + 20*rng.Float64()}
	}
	return vms, pms
}

func TestStrategyNames(t *testing.T) {
	if (FFDByRp{}).Name() != "RP" {
		t.Error("FFDByRp name")
	}
	if (FFDByRb{}).Name() != "RB" {
		t.Error("FFDByRb name")
	}
	if (RBEX{}).Name() != "RB-EX" {
		t.Error("RBEX name")
	}
	if (QueuingFFD{}).Name() != "QUEUE" {
		t.Error("QueuingFFD name")
	}
	if (MultiDimFF{}).Name() != "QUEUE-MD" {
		t.Error("MultiDimFF name")
	}
}

func TestFFDByRpRespectsPeak(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 50, 30), mkVM(2, 40, 20), mkVM(3, 10, 5)}
	res, err := FFDByRp{}.Place(vms, mkPool(3, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("unplaced: %v", res.Unplaced)
	}
	if v := cloud.CheckPeak(res.Placement); v != nil {
		t.Errorf("peak constraint violated: %v", v)
	}
	// VM1 peak 80 + VM2 peak 60 exceed 100, so ≥ 2 PMs needed.
	if res.UsedPMs() < 2 {
		t.Errorf("used %d PMs, expected ≥ 2", res.UsedPMs())
	}
}

func TestFFDByRpDecreasingOrder(t *testing.T) {
	// FFD should put the two large VMs on separate PMs and slot the small
	// ones beside them; naive first-fit in id order would need a third PM.
	vms := []cloud.VM{
		mkVM(1, 10, 0), mkVM(2, 10, 0), // small
		mkVM(3, 90, 0), mkVM(4, 90, 0), // large
	}
	res, err := FFDByRp{}.Place(vms, mkPool(4, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPMs() != 2 {
		t.Errorf("used %d PMs, FFD should need exactly 2", res.UsedPMs())
	}
}

func TestFFDByRbIgnoresSpikes(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 50, 100), mkVM(2, 50, 100)}
	res, err := FFDByRb{}.Place(vms, mkPool(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPMs() != 1 {
		t.Errorf("RB should pack by Rb only onto 1 PM, used %d", res.UsedPMs())
	}
	if v := cloud.CheckNormal(res.Placement); v != nil {
		t.Errorf("normal constraint violated: %v", v)
	}
}

func TestRBEXReservesFraction(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 40, 5), mkVM(2, 35, 5)} // sum Rb = 75 > 70
	res, err := RBEX{Delta: 0.3}.Place(vms, mkPool(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPMs() != 2 {
		t.Errorf("δ=0.3 leaves 70 usable; 75 must split onto 2 PMs, used %d", res.UsedPMs())
	}
	if v := cloud.CheckFixedReserve(res.Placement, 0.3); v != nil {
		t.Errorf("fixed-reserve constraint violated: %v", v)
	}
}

func TestRBEXZeroDeltaEqualsRB(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vms, pms := randomFleet(rng, 60)
	rb, err := FFDByRb{}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	rbex, err := RBEX{Delta: 0}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if rb.UsedPMs() != rbex.UsedPMs() {
		t.Errorf("RB %d PMs vs RB-EX(0) %d PMs", rb.UsedPMs(), rbex.UsedPMs())
	}
}

func TestRBEXRejectsBadDelta(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 1, 1)}
	for _, d := range []float64{-0.1, 1, 1.5} {
		if _, err := (RBEX{Delta: d}).Place(vms, mkPool(1, 10)); err == nil {
			t.Errorf("delta %v accepted", d)
		}
	}
}

func TestUnplacedWhenNothingFits(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 200, 10)}
	res, err := FFDByRb{}.Place(vms, mkPool(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 1 || res.Unplaced[0].ID != 1 {
		t.Errorf("expected VM 1 unplaced, got %v", res.Unplaced)
	}
	if res.UsedPMs() != 0 {
		t.Error("no PM should be used")
	}
}

func TestMaxVMsPerPMCap(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 1, 0), mkVM(2, 1, 0), mkVM(3, 1, 0)}
	res, err := FFDByRb{MaxVMsPerPM: 2}.Place(vms, mkPool(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPMs() != 2 {
		t.Errorf("cap of 2 should force 2 PMs, used %d", res.UsedPMs())
	}
	res2, err := FFDByRp{MaxVMsPerPM: 1}.Place(vms, mkPool(3, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res2.UsedPMs() != 3 {
		t.Errorf("cap of 1 should force 3 PMs, used %d", res2.UsedPMs())
	}
	res3, err := RBEX{Delta: 0.1, MaxVMsPerPM: 3}.Place(vms, mkPool(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	if res3.UsedPMs() != 1 {
		t.Errorf("cap of 3 fits all on 1 PM, used %d", res3.UsedPMs())
	}
}

// TestPlaceRejectsInvalidSpecs: every strategy validates the fleet exactly
// once, on entry to Place — the shared first-fit loops no longer do — so each
// entry point, under both placers, must itself refuse an invalid VM, a
// non-finite demand and a duplicate id, and still refuse a bad pool.
func TestPlaceRejectsInvalidSpecs(t *testing.T) {
	var strategies []Strategy
	for _, placer := range []Placer{PlacerIndexed, PlacerLinear} {
		for _, s := range []Strategy{
			QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, FFDByRp{}, FFDByRb{}, RBEX{Delta: 0.3},
		} {
			strategies = append(strategies, withPlacer(s, placer))
		}
	}
	strategies = append(strategies,
		EffectiveSizing{Epsilon: 0.05},
		ConvolutionFF{Rho: 0.01, MaxVMsPerPM: 8})

	fleets := []struct {
		name string
		vms  []cloud.VM
	}{
		{"invalid VM", []cloud.VM{mkVM(0, 1, 1), {ID: 1, POn: 0, POff: 0.1, Rb: 1, Re: 1}}},
		{"NaN demand", []cloud.VM{mkVM(0, 1, 1), mkVM(1, math.NaN(), 1)}},
		{"infinite spike", []cloud.VM{mkVM(0, 1, 1), mkVM(1, 1, math.Inf(1))}},
		{"duplicate id", []cloud.VM{mkVM(1, 1, 1), mkVM(2, 1, 1), mkVM(1, 2, 2)}},
	}
	for _, s := range strategies {
		for _, f := range fleets {
			if _, err := s.Place(f.vms, mkPool(4, 10)); err == nil {
				t.Errorf("%s (%T): %s accepted", s.Name(), s, f.name)
			}
		}
		if _, err := s.Place([]cloud.VM{mkVM(1, 1, 1)}, []cloud.PM{{ID: 0, Capacity: -1}}); err == nil {
			t.Errorf("%s: invalid PM accepted", s.Name())
		}
		if _, err := s.Place([]cloud.VM{mkVM(1, 1, 1)}, []cloud.PM{{ID: 0, Capacity: math.NaN()}}); err == nil {
			t.Errorf("%s: NaN capacity accepted", s.Name())
		}
		if res, err := s.Place([]cloud.VM{mkVM(1, 1, 1), mkVM(2, 1, 1)}, mkPool(4, 10)); err != nil || res.Placement.NumVMs() != 2 {
			t.Errorf("%s: valid fleet not placed: %v", s.Name(), err)
		}
	}
}

// Property: every strategy's placement satisfies its own admission invariant,
// and RB never uses more PMs than RP (its footprint per VM is smaller).
func TestPropBaselineInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vms, pms := randomFleet(rng, 10+rng.Intn(80))
		rp, err := FFDByRp{}.Place(vms, pms)
		if err != nil || len(rp.Unplaced) > 0 {
			return false
		}
		rb, err := FFDByRb{}.Place(vms, pms)
		if err != nil || len(rb.Unplaced) > 0 {
			return false
		}
		rbex, err := RBEX{Delta: 0.3}.Place(vms, pms)
		if err != nil || len(rbex.Unplaced) > 0 {
			return false
		}
		if cloud.CheckPeak(rp.Placement) != nil {
			return false
		}
		if cloud.CheckNormal(rb.Placement) != nil {
			return false
		}
		if cloud.CheckFixedReserve(rbex.Placement, 0.3) != nil {
			return false
		}
		// Orderings the paper's Fig. 5/9 rely on.
		return rb.UsedPMs() <= rp.UsedPMs() && rb.UsedPMs() <= rbex.UsedPMs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
