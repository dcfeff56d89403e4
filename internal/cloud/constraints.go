package cloud

import (
	"fmt"

	"repro/internal/markov"
	"repro/internal/queuing"
)

// Violation describes one PM whose admission invariant does not hold, with
// the footprint that was compared against capacity.
type Violation struct {
	PMID      int
	Footprint float64
	Capacity  float64
	Detail    string
}

func (v Violation) Error() string {
	return fmt.Sprintf("cloud: PM %d violates %s: footprint %.4f > capacity %.4f",
		v.PMID, v.Detail, v.Footprint, v.Capacity)
}

// CheckPeak verifies Σ R_p ≤ C on every used PM — the invariant of peak
// provisioning (FFD by R_p), which by construction can never see a capacity
// violation at runtime.
func CheckPeak(p *Placement) []Violation {
	return check(p, func(pmID int) (float64, string) {
		return p.SumRp(pmID), "peak constraint (ΣR_p ≤ C)"
	})
}

// CheckNormal verifies Σ R_b ≤ C on every used PM — Eq. (3) at t = 0 when
// all VMs start OFF, the only guarantee normal provisioning (FFD by R_b)
// makes.
func CheckNormal(p *Placement) []Violation {
	return check(p, func(pmID int) (float64, string) {
		return p.SumRb(pmID), "normal constraint (ΣR_b ≤ C)"
	})
}

// CheckReserved verifies Eq. (17) on every used PM: Σ R_b plus the
// block reservation (max R_e · mapping(k)) must fit in capacity.
func CheckReserved(p *Placement, table *queuing.MappingTable) []Violation {
	return check(p, func(pmID int) (float64, string) {
		return p.ReservedFootprint(pmID, table), "reservation constraint (Eq. 17)"
	})
}

// CheckFixedReserve verifies the RB-EX invariant: Σ R_b ≤ (1−δ)·C, i.e. a
// δ-fraction of each PM is withheld from packing.
func CheckFixedReserve(p *Placement, delta float64) []Violation {
	return check(p, func(pmID int) (float64, string) {
		pm, _ := p.PM(pmID)
		// Expressed as footprint vs capacity by adding the reserve to ΣR_b.
		return p.SumRb(pmID) + delta*pm.Capacity, fmt.Sprintf("fixed-reserve constraint (ΣR_b + δC ≤ C, δ=%.2f)", delta)
	})
}

func check(p *Placement, footprint func(pmID int) (float64, string)) []Violation {
	var out []Violation
	const eps = 1e-9
	for _, pmID := range p.UsedPMs() {
		fp, detail := footprint(pmID)
		pm, _ := p.PM(pmID)
		if fp > pm.Capacity+eps {
			out = append(out, Violation{PMID: pmID, Footprint: fp, Capacity: pm.Capacity, Detail: detail})
		}
	}
	return out
}

// InstantLoad returns Σ W_i(t) on a PM given each hosted VM's current
// workload state — the left side of Eq. (3) at runtime.
func (p *Placement) InstantLoad(pmID int, states map[int]markov.State) float64 {
	load := 0.0
	for _, vm := range p.hosted(pmID) {
		load += vm.Demand(states[vm.ID])
	}
	return load
}

// IsViolated reports vio(j, t): whether the aggregate instantaneous demand on
// PM j exceeds its capacity for the given VM states.
func (p *Placement) IsViolated(pmID int, states map[int]markov.State) bool {
	pm, ok := p.PM(pmID)
	if !ok {
		return false
	}
	return p.InstantLoad(pmID, states) > pm.Capacity+1e-9
}
