package core

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/queuing"
)

// ConvolutionFF ("CONV") packs by the exact stationary overflow probability:
// a VM joins a PM only if the convolution of all hosted demand distributions
// keeps P(load > C) ≤ ρ. By ergodicity this bounds the CVR exactly — the
// *tightest* packing the paper's Eq. (5) constraint permits — so it lower-
// bounds how many PMs any correct strategy needs. What it gives up relative
// to the paper's block reservation is structure: there is no uniform
// spike-sized block for local resizing to expand into, so any spike beyond
// the probabilistic headroom lands directly on capacity, and violation
// *episodes* last as long as the spike (the temporal cost the CVR metric
// alone does not see). Admission is O(2^k) atoms worst case; the per-PM VM
// cap keeps that bounded (2^16 atoms ≈ 65k, pruned).
type ConvolutionFF struct {
	// Rho is the exact stationary overflow budget per PM.
	Rho float64
	// MaxVMsPerPM caps VMs per PM (also bounds the convolution size).
	MaxVMsPerPM int
}

// Name returns "CONV".
func (ConvolutionFF) Name() string { return "CONV" }

// Place runs FFD on R_p descending with the exact-tail admission test.
func (s ConvolutionFF) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if s.Rho < 0 || s.Rho >= 1 {
		return nil, fmt.Errorf("core: CONV rho = %v outside [0,1)", s.Rho)
	}
	if s.MaxVMsPerPM < 1 || s.MaxVMsPerPM > 24 {
		return nil, fmt.Errorf("core: CONV needs MaxVMsPerPM in [1,24] (convolution growth), got %d", s.MaxVMsPerPM)
	}
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	ordered := sortByDecreasing(vms, cloud.VM.Rp)
	return firstFit(ordered, pms, func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		if p.CountOn(pmID) >= s.MaxVMsPerPM {
			return false
		}
		pm, _ := p.PM(pmID)
		// Admission also keeps the all-OFF load feasible (Eq. 3 at t = 0).
		if p.SumRb(pmID)+vm.Rb > pm.Capacity+capEps {
			return false
		}
		tail, err := s.tailWith(p, vm, pmID, pm.Capacity)
		if err != nil {
			return false
		}
		return tail <= s.Rho+1e-12
	})
}

// tailWith computes P(load > C) for the PM's hosted set plus the candidate.
func (s ConvolutionFF) tailWith(p *cloud.Placement, vm cloud.VM, pmID int, capacity float64) (float64, error) {
	d := queuing.NewLoadDistribution()
	add := func(v cloud.VM) error {
		q := v.POn / (v.POn + v.POff)
		return d.AddVM(v.Rb, v.Re, q)
	}
	for _, hosted := range p.VMsOn(pmID) {
		if err := add(hosted); err != nil {
			return 0, err
		}
	}
	if err := add(vm); err != nil {
		return 0, err
	}
	return d.TailBeyond(capacity), nil
}

// ConvViolations audits a placement under the exact-tail constraint.
func ConvViolations(p *cloud.Placement, rho float64) ([]cloud.Violation, error) {
	var out []cloud.Violation
	for _, pmID := range p.UsedPMs() {
		d := queuing.NewLoadDistribution()
		for _, vm := range p.VMsOn(pmID) {
			q := vm.POn / (vm.POn + vm.POff)
			if err := d.AddVM(vm.Rb, vm.Re, q); err != nil {
				return nil, err
			}
		}
		pm, _ := p.PM(pmID)
		if tail := d.TailBeyond(pm.Capacity); tail > rho+1e-12 {
			out = append(out, cloud.Violation{
				PMID:      pmID,
				Footprint: tail, // probability, not load — Detail disambiguates
				Capacity:  rho,
				Detail:    fmt.Sprintf("exact overflow probability %.5f > rho %.5f", tail, rho),
			})
		}
	}
	return out, nil
}
