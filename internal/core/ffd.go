package core

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/fitindex"
)

// FFDByRp is the "RP" baseline of §V: First Fit Decreasing on the peak
// requirement R_p. Every VM is admitted only if the sum of peaks fits, so the
// placement can never see a capacity violation at runtime — at the price of
// provisioning every VM for its spike permanently.
type FFDByRp struct {
	// MaxVMsPerPM optionally caps the number of VMs per PM (0 = unlimited);
	// the paper's baselines are uncapped, the cap exists for like-for-like
	// ablations against QueuingFFD's d.
	MaxVMsPerPM int
	// Placer selects the first-fit implementation; see QueuingFFD.Placer.
	Placer Placer
}

// Name returns "RP".
func (FFDByRp) Name() string { return "RP" }

// Place runs FFD ordered by R_p descending with the peak constraint
// Σ R_p ≤ C.
func (s FFDByRp) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	ordered := sortByDecreasing(vms, cloud.VM.Rp)
	admit := func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		if s.MaxVMsPerPM > 0 && p.CountOn(pmID) >= s.MaxVMsPerPM {
			return false
		}
		pm, _ := p.PM(pmID)
		return p.SumRp(pmID)+vm.Rp() <= pm.Capacity+capEps
	}
	if s.Placer == PlacerLinear {
		return firstFit(ordered, pms, admit)
	}
	return firstFitIndexed(ordered, pms, admit, fitSpec{
		need: cloud.VM.Rp,
		score: func(p *cloud.Placement, pm cloud.PM) float64 {
			if s.MaxVMsPerPM > 0 && p.CountOn(pm.ID) >= s.MaxVMsPerPM {
				return fitindex.NegInf
			}
			return pm.Capacity - p.SumRp(pm.ID)
		},
	}, nil, s.Name())
}

// FFDByRb is the "RB" baseline of §V: First Fit Decreasing on the normal
// requirement R_b. It packs as if spikes never happen — the densest and, per
// the paper's Fig. 6/9, the worst-performing strategy under burstiness.
type FFDByRb struct {
	MaxVMsPerPM int    // 0 = unlimited, see FFDByRp
	Placer      Placer // see QueuingFFD.Placer
}

// Name returns "RB".
func (FFDByRb) Name() string { return "RB" }

// Place runs FFD ordered by R_b descending with the normal constraint
// Σ R_b ≤ C (Eq. 3 at t = 0 with all VMs OFF).
func (s FFDByRb) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	ordered := sortByDecreasing(vms, func(v cloud.VM) float64 { return v.Rb })
	admit := func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		if s.MaxVMsPerPM > 0 && p.CountOn(pmID) >= s.MaxVMsPerPM {
			return false
		}
		pm, _ := p.PM(pmID)
		return p.SumRb(pmID)+vm.Rb <= pm.Capacity+capEps
	}
	if s.Placer == PlacerLinear {
		return firstFit(ordered, pms, admit)
	}
	return firstFitIndexed(ordered, pms, admit, fitSpec{
		need: func(vm cloud.VM) float64 { return vm.Rb },
		score: func(p *cloud.Placement, pm cloud.PM) float64 {
			if s.MaxVMsPerPM > 0 && p.CountOn(pm.ID) >= s.MaxVMsPerPM {
				return fitindex.NegInf
			}
			return pm.Capacity - p.SumRb(pm.ID)
		},
	}, nil, s.Name())
}

// RBEX is the "RB-EX" baseline of §V-D: FFD by R_b, but a fixed δ-fraction of
// every PM's capacity is withheld as a burstiness buffer — the strategy an
// operator uses when nothing about the workload is known except that
// burstiness exists. The paper evaluates δ = 0.3.
type RBEX struct {
	Delta       float64 // fraction of capacity reserved on every PM, in [0,1)
	MaxVMsPerPM int     // 0 = unlimited, see FFDByRp
	Placer      Placer  // see QueuingFFD.Placer
}

// Name returns "RB-EX".
func (RBEX) Name() string { return "RB-EX" }

// Place runs FFD ordered by R_b descending with the shrunk-capacity
// constraint Σ R_b ≤ (1−δ)·C.
func (s RBEX) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if s.Delta < 0 || s.Delta >= 1 {
		return nil, fmt.Errorf("core: RB-EX delta = %v outside [0,1)", s.Delta)
	}
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	ordered := sortByDecreasing(vms, func(v cloud.VM) float64 { return v.Rb })
	admit := func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		if s.MaxVMsPerPM > 0 && p.CountOn(pmID) >= s.MaxVMsPerPM {
			return false
		}
		pm, _ := p.PM(pmID)
		return p.SumRb(pmID)+vm.Rb <= (1-s.Delta)*pm.Capacity+capEps
	}
	if s.Placer == PlacerLinear {
		return firstFit(ordered, pms, admit)
	}
	return firstFitIndexed(ordered, pms, admit, fitSpec{
		need: func(vm cloud.VM) float64 { return vm.Rb },
		score: func(p *cloud.Placement, pm cloud.PM) float64 {
			if s.MaxVMsPerPM > 0 && p.CountOn(pm.ID) >= s.MaxVMsPerPM {
				return fitindex.NegInf
			}
			return (1-s.Delta)*pm.Capacity - p.SumRb(pm.ID)
		},
	}, nil, s.Name())
}

// capEps absorbs float round-off in admission comparisons so that demands
// summing exactly to capacity are admitted.
const capEps = 1e-9
