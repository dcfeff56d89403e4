package core

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/queuing"
)

func hv(id int, pOn, pOff float64) cloud.VM {
	return cloud.VM{ID: id, POn: pOn, POff: pOff, Rb: 10, Re: 5}
}

func TestRoundUniformPassThrough(t *testing.T) {
	vms := []cloud.VM{hv(1, 0.01, 0.09), hv(2, 0.01, 0.09)}
	for _, policy := range []RoundingPolicy{RoundMean, RoundConservative} {
		pOn, pOff, err := RoundSwitchProbabilities(vms, policy)
		if err != nil {
			t.Fatal(err)
		}
		if pOn != 0.01 || pOff != 0.09 {
			t.Errorf("policy %d: uniform fleet not passed through: %v, %v", policy, pOn, pOff)
		}
	}
}

func TestRoundEmpty(t *testing.T) {
	if _, _, err := RoundSwitchProbabilities(nil, RoundMean); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestRoundUnknownPolicy(t *testing.T) {
	vms := []cloud.VM{hv(1, 0.01, 0.09), hv(2, 0.02, 0.08)}
	if _, _, err := RoundSwitchProbabilities(vms, RoundingPolicy(42)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRoundMean(t *testing.T) {
	// q = 0.1 and 0.3 average to 0.2; p_on + p_off = 0.1 and 0.5 average to
	// 0.3, so the pair is (0.2·0.3, 0.8·0.3). Averaging p_on and p_off
	// separately would give (0.08, 0.22), whose q is 0.267, not 0.2.
	vms := []cloud.VM{hv(1, 0.01, 0.09), hv(2, 0.15, 0.35)}
	pOn, pOff, err := RoundSwitchProbabilities(vms, RoundMean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pOn-0.06) > 1e-12 || math.Abs(pOff-0.24) > 1e-12 {
		t.Errorf("mean rounding = (%v, %v), want (0.06, 0.24)", pOn, pOff)
	}
}

func TestRoundMeanStaysAValidChain(t *testing.T) {
	// Mean q = 0.75 and mean p_on + p_off ≈ 1.5 would put p_on past 1; the
	// rate is capped so the pair is still a chain, with q kept.
	vms := []cloud.VM{hv(1, 1, 1e-9), hv(2, 1, 1)}
	pOn, pOff, err := RoundSwitchProbabilities(vms, RoundMean)
	if err != nil {
		t.Fatal(err)
	}
	if pOn > 1 || pOff > 1 || math.Abs(pOn/(pOn+pOff)-0.75) > 1e-9 {
		t.Errorf("mean rounding = (%v, %v), want a chain with q = 0.75", pOn, pOff)
	}
}

// TestRoundingMeetsExactTail checks every policy on two-class fleets — k/2
// VMs of each class, k ∈ {2, 4, …, 32}, classes from a 6 × 6 grid of p_on ∈
// [0.001, 0.1] × p_off ∈ [0.01, 0.9] — against the exact Poisson-binomial
// block count at ρ = 0.01: the rounded table must reserve at least as many
// blocks, or the fleet's CVR exceeds ρ.
func TestRoundingMeetsExactTail(t *testing.T) {
	const rho = 0.01
	var classes [][2]float64
	for i := range 6 {
		for j := range 6 {
			pOn := 0.001 * math.Pow(100, float64(i)/5)
			pOff := 0.01 * math.Pow(90, float64(j)/5)
			classes = append(classes, [2]float64{pOn, pOff})
		}
	}
	failures := 0
	for k := 2; k <= 32; k += 2 {
		for a := range classes {
			for b := a + 1; b < len(classes); b++ {
				vms := make([]cloud.VM, k)
				pOns, pOffs := make([]float64, k), make([]float64, k)
				for i := range vms {
					c := classes[a]
					if i >= k/2 {
						c = classes[b]
					}
					vms[i] = hv(i, c[0], c[1])
					pOns[i], pOffs[i] = c[0], c[1]
				}
				exact, err := queuing.MapCalHetero(pOns, pOffs, rho)
				if err != nil {
					t.Fatal(err)
				}
				for _, policy := range []RoundingPolicy{RoundMean, RoundConservative} {
					pOn, pOff, err := RoundSwitchProbabilities(vms, policy)
					if err != nil {
						t.Fatal(err)
					}
					table, err := queuing.NewMappingTable(k, pOn, pOff, rho)
					if err != nil {
						t.Fatal(err)
					}
					if got := table.Blocks(k); got < exact.K {
						if failures++; failures <= 5 {
							t.Errorf("policy %d, k=%d, classes %v / %v: %d blocks, exact tail needs %d",
								policy, k, classes[a], classes[b], got, exact.K)
						}
					}
				}
			}
		}
	}
	if failures > 0 {
		t.Errorf("%d rounded tables under-provision", failures)
	}
}

func TestRoundConservative(t *testing.T) {
	vms := []cloud.VM{hv(1, 0.01, 0.10), hv(2, 0.05, 0.30), hv(3, 0.02, 0.05)}
	pOn, pOff, err := RoundSwitchProbabilities(vms, RoundConservative)
	if err != nil {
		t.Fatal(err)
	}
	if pOn != 0.05 || pOff != 0.05 {
		t.Errorf("conservative rounding = (%v, %v), want (0.05, 0.05)", pOn, pOff)
	}
}

func TestRoundConservativeGivesHigherOnProbability(t *testing.T) {
	// Conservative rounding must yield a stationary ON probability at least
	// as high as any individual VM's — the property that makes it safe.
	vms := []cloud.VM{hv(1, 0.01, 0.30), hv(2, 0.04, 0.08), hv(3, 0.02, 0.15)}
	pOn, pOff, err := RoundSwitchProbabilities(vms, RoundConservative)
	if err != nil {
		t.Fatal(err)
	}
	rounded := pOn / (pOn + pOff)
	for _, v := range vms {
		individual := v.POn / (v.POn + v.POff)
		if rounded < individual-1e-12 {
			t.Errorf("conservative π_ON %v below VM %d's %v", rounded, v.ID, individual)
		}
	}
}

func TestQueuingFFDHeterogeneousFleet(t *testing.T) {
	// A heterogeneous fleet should place fine under every rounding policy
	// and respect Eq. (17) with the rounded table.
	vms := []cloud.VM{
		hv(1, 0.01, 0.10), hv(2, 0.02, 0.08), hv(3, 0.015, 0.12),
		hv(4, 0.01, 0.09), hv(5, 0.03, 0.07),
	}
	for _, policy := range []RoundingPolicy{RoundMean, RoundConservative} {
		s := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16, Rounding: policy}
		res, err := s.Place(vms, mkPool(5, 100))
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		table, err := s.Table(vms)
		if err != nil {
			t.Fatal(err)
		}
		if v := cloud.CheckReserved(res.Placement, table); v != nil {
			t.Errorf("policy %d: Eq. (17) violated: %v", policy, v)
		}
	}
}
