// Package core implements the paper's consolidation algorithms: QueuingFFD
// (Algorithm 2), which places VMs under the queuing-theoretic reservation
// constraint of Eq. (17), and the comparison strategies of §V — FFD by R_p
// (peak provisioning), FFD by R_b (normal provisioning) and RB-EX (fixed
// δ-fraction reservation) — together with the online arrival/departure
// operations and the multi-dimensional extension sketched in §IV-E.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
)

// Strategy is a VM-consolidation algorithm: it maps a VM fleet onto a PM
// pool, producing the binary placement X of Eq. (6).
type Strategy interface {
	// Name identifies the strategy in experiment output (e.g. "QUEUE", "RP").
	Name() string
	// Place consolidates the fleet. VMs that fit nowhere are reported in
	// Result.Unplaced rather than failing the whole run; spec errors
	// (invalid VMs/PMs, bad parameters) return a non-nil error.
	Place(vms []cloud.VM, pms []cloud.PM) (*Result, error)
}

// Result is the outcome of one consolidation run.
type Result struct {
	Placement *cloud.Placement
	Unplaced  []cloud.VM // VMs no PM could admit, in attempted order
}

// UsedPMs returns the objective value: the number of PMs hosting ≥ 1 VM.
func (r *Result) UsedPMs() int { return r.Placement.NumUsedPMs() }

// admission decides whether vm may join pmID given the current placement —
// each strategy supplies its own constraint (Eq. 3 variants or Eq. 17).
type admission func(p *cloud.Placement, vm cloud.VM, pmID int) bool

// firstFit places each VM (in the given order) on the lowest-id PM that
// admits it — the paper's O(n·m) First Fit scan. CONV and SBP place with it;
// the Eq. (17) and baseline strategies go through the equivalent index
// (firstFitIndexed), and the tests hold the index to this scan. The fleet
// must already have passed cloud.ValidateVMs: every strategy's Place
// validates once on entry, before it orders the fleet.
func firstFit(vms []cloud.VM, pms []cloud.PM, admit admission) (*Result, error) {
	placement, err := cloud.NewPlacement(pms)
	if err != nil {
		return nil, err
	}
	var unplaced []cloud.VM
	for _, vm := range vms {
		placed := false
		for i := 0; i < placement.NumPMs(); i++ {
			if pmID := placement.PMAt(i).ID; admit(placement, vm, pmID) {
				if err := placement.Assign(vm, pmID); err != nil {
					return nil, fmt.Errorf("core: assigning VM %d to PM %d: %w", vm.ID, pmID, err)
				}
				placed = true
				break
			}
		}
		if !placed {
			unplaced = append(unplaced, vm)
		}
	}
	return &Result{Placement: placement, Unplaced: unplaced}, nil
}

// ShardBounds splits m contiguous positions into k ranges: entry i covers
// [bounds[i], bounds[i+1]). Range sizes differ by at most one, with earlier
// ranges taking the remainder; k is clamped to [1, m] (and to 1 when m = 0,
// yielding the single empty range). This is the house partitioning rule for
// every range-scoped fleet construction: the simulator's sharded stepping
// passes and the shardsvc federation's per-shard PM ranges both cut with it,
// so "shard i's PMs" means the same thing everywhere.
func ShardBounds(m, k int) []int {
	if k > m {
		k = m
	}
	if k < 1 {
		k = 1
	}
	bounds := make([]int, k+1)
	base, rem := m/k, m%k
	pos := 0
	for i := 0; i < k; i++ {
		bounds[i] = pos
		pos += base
		if i < rem {
			pos++
		}
	}
	bounds[k] = pos
	return bounds
}

// sortByDecreasing returns a copy of vms sorted by the given key descending,
// with ties broken by id for determinism — the "Decrease" in FFD.
func sortByDecreasing(vms []cloud.VM, key func(cloud.VM) float64) []cloud.VM {
	out := append([]cloud.VM(nil), vms...)
	sort.SliceStable(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki > kj
		}
		return out[i].ID < out[j].ID
	})
	return out
}
