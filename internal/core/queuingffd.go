package core

import (
	"fmt"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/fitindex"
	"repro/internal/queuing"
	"repro/internal/telemetry"
)

// QueuingFFD is Algorithm 2 — the paper's burstiness-aware consolidation:
// precompute mapping(k) via MapCal, cluster VMs by similar R_e, sort, then
// First-Fit under the reservation constraint of Eq. (17).
type QueuingFFD struct {
	// Rho is the CVR threshold ρ of Eq. (5).
	Rho float64
	// MaxVMsPerPM is d, the cap on VMs per PM; mapping(k) is precomputed
	// for k ∈ [1, d].
	MaxVMsPerPM int
	// Rounding handles heterogeneous switch probabilities (§IV-E); the zero
	// value (RoundMean) rounds to the fleet's mean stationary ON probability.
	// Irrelevant when the fleet is uniform.
	Rounding RoundingPolicy
	// ExactHetero replaces the §IV-E rounding with the exact
	// Poisson-binomial block computation (queuing.MapCalHetero): admission
	// evaluates each candidate host set's individual switch probabilities,
	// so heterogeneous fleets get the CVR guarantee without rounding error.
	// Costs an O(k²) dynamic program per admission test instead of a table
	// lookup.
	ExactHetero bool
	// Tracer receives decision-level telemetry: one SolveEvent per MapCal run
	// during table precompute and one PlacementEvent per Eq. (17) admission
	// test, carrying both sides of the constraint and the accept/reject
	// reason. Nil disables instrumentation at the cost of one branch per
	// admission test.
	Tracer telemetry.Tracer
	// Tables optionally memoises whole mapping tables keyed by
	// (d, p_on, p_off, ρ) with singleflight semantics, so concurrent
	// refreshes of the same cohort solve once and independently constructed
	// consumers share tables. Cache hits emit no SolveEvents at all (the table
	// was not solved). Online consolidators always use a table cache — Tables
	// when set, queuing.SharedTables() otherwise.
	Tables *queuing.TableCache
}

// tables returns the strategy's table cache, defaulting to the process-wide
// shared cache. Only the Online path consults this unconditionally; offline
// Table calls use Tables solely when explicitly set, preserving their traced
// solve-per-build behavior.
func (s QueuingFFD) tables() *queuing.TableCache {
	if s.Tables != nil {
		return s.Tables
	}
	return queuing.SharedTables()
}

// Name returns "QUEUE".
func (QueuingFFD) Name() string { return "QUEUE" }

// Table precomputes the mapping table for the given fleet: it derives the
// common (p_on, p_off) — rounding heterogeneous fleets per the policy — and
// runs MapCal for every k ∈ [1, d] (Algorithm 2, lines 1–6).
func (s QueuingFFD) Table(vms []cloud.VM) (*queuing.MappingTable, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("core: no VMs")
	}
	if s.MaxVMsPerPM < 1 {
		return nil, fmt.Errorf("core: QueuingFFD needs MaxVMsPerPM ≥ 1, got %d", s.MaxVMsPerPM)
	}
	pOn, pOff, err := RoundSwitchProbabilities(vms, s.Rounding)
	if err != nil {
		return nil, err
	}
	build := func() (*queuing.MappingTable, error) {
		return queuing.NewMappingTableTraced(s.MaxVMsPerPM, pOn, pOff, s.Rho, s.Tracer)
	}
	if s.Tables != nil {
		return s.Tables.Get(s.MaxVMsPerPM, pOn, pOff, s.Rho, build)
	}
	return build()
}

// Place runs the complete Algorithm 2.
func (s QueuingFFD) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	table, err := s.Table(vms)
	if err != nil {
		return nil, err
	}
	ordered, err := s.order(vms)
	if err != nil {
		return nil, err
	}
	admit := func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		return s.admit(p, vm, pmID, table)
	}
	return firstFitIndexed(ordered, pms, admit, s.fitSpec(func() *queuing.MappingTable { return table }), s.Tracer, s.Name())
}

// fitSpec returns the index scoring for Eq. (17) admission. The score is the
// exact headroom left for a VM whose R_e does not exceed the hosted maximum,
//
//	C_j − Σ R_b − max R_e(T_j) · mapping(|T_j|+1),
//
// an upper bound in general because the true reservation uses
// max(R_e^i, max R_e(T_j)) ≥ max R_e(T_j). Under ExactHetero the block count
// depends on the candidate's own switch probabilities, so the score falls
// back to the looser C_j − Σ R_b (the reservation is non-negative), trading
// extra verification probes for soundness.
//
// The table is supplied through a getter so Online can keep one index across
// RefreshTable calls: the closure reads the current table at score time.
func (s QueuingFFD) fitSpec(table func() *queuing.MappingTable) fitSpec {
	return fitSpec{
		need: func(vm cloud.VM) float64 { return vm.Rb },
		score: func(p *cloud.Placement, pm cloud.PM) float64 {
			k := p.CountOn(pm.ID)
			if k+1 > s.MaxVMsPerPM {
				return fitindex.NegInf
			}
			free := pm.Capacity - p.SumRb(pm.ID)
			if !s.ExactHetero {
				free -= p.MaxRe(pm.ID) * float64(table().Blocks(k+1))
			}
			return free
		},
	}
}

// Order exposes the Algorithm 2 cluster-and-sort (lines 7–9) for callers
// that apply placements themselves. The input is not mutated; the returned
// slice is freshly allocated.
func (s QueuingFFD) Order(vms []cloud.VM) ([]cloud.VM, error) {
	return s.order(vms)
}

// order performs Algorithm 2 lines 7–9: cluster by similar R_e, sort clusters
// by R_e descending, sort VMs inside by R_b descending.
func (s QueuingFFD) order(vms []cloud.VM) ([]cloud.VM, error) {
	perm, err := s.OrderPerm(new(cluster.Sorter), vms)
	if err != nil {
		return nil, err
	}
	out := make([]cloud.VM, len(perm))
	for j, i := range perm {
		out[j] = vms[i]
	}
	return out, nil
}

// OrderPerm is Order as a permutation — the j-th VM to place is
// vms[perm[j]] — computed in sorter's reused buffers, valid until its next
// use. The batched admission service orders each commit's arrivals with it.
func (s QueuingFFD) OrderPerm(sorter *cluster.Sorter, vms []cloud.VM) ([]int, error) {
	return sorter.RangeBuckets(vms, numClusters(len(vms)))
}

// numClusters is the R_e cluster count for n VMs, max(1, n/8), mirroring the
// paper's "similar R_e" granularity.
func numClusters(n int) int {
	return max(1, n/8)
}

// admit evaluates Eq. (17) for vm joining pmID:
//
//	max{R_e^i, max R_e of T_j} · mapping(|T_j|+1) + R_b^i + Σ_{s∈T_j} R_b^s ≤ C_j
//
// plus the d cap.
func (s QueuingFFD) admit(p *cloud.Placement, vm cloud.VM, pmID int, table *queuing.MappingTable) bool {
	tr := telemetry.OrNop(s.Tracer)
	k := p.CountOn(pmID)
	if k+1 > s.MaxVMsPerPM {
		if tr.Enabled() {
			tr.Emit(telemetry.PlacementEvent{
				VMID: vm.ID, PMID: pmID, HostedK: k + 1, Reason: telemetry.ReasonVMCap,
			})
		}
		return false
	}
	pm, _ := p.PM(pmID)
	var blocks int
	peakFallback := false
	if s.ExactHetero {
		blocks, peakFallback = s.heteroBlocks(p, vm, pmID)
	} else {
		blocks = table.Blocks(k + 1)
	}
	blockSize := vm.Re
	if hosted := p.MaxRe(pmID); hosted > blockSize {
		blockSize = hosted
	}
	lhs := p.SumRb(pmID) + vm.Rb + blockSize*float64(blocks)
	admitted := lhs <= pm.Capacity+capEps
	if tr.Enabled() {
		reason := telemetry.ReasonFits
		switch {
		case !admitted:
			reason = telemetry.ReasonOverflow
		case peakFallback:
			reason = telemetry.ReasonPeakFallback
		}
		tr.Emit(telemetry.PlacementEvent{
			VMID: vm.ID, PMID: pmID, HostedK: k + 1, Blocks: blocks,
			LHS: lhs, RHS: pm.Capacity, Accepted: admitted, Reason: reason,
		})
	}
	return admitted
}

// heteroBlocks computes the exact block count for the candidate host set
// (hosted VMs plus vm) from their individual switch probabilities. When the
// exact solve fails (degenerate probabilities the oracle cannot handle), it
// degrades to peak provisioning — one block per VM, zero analytic CVR — and
// reports peak=true so the admission trace marks the decision.
func (s QueuingFFD) heteroBlocks(p *cloud.Placement, vm cloud.VM, pmID int) (blocks int, peak bool) {
	hosted := p.VMsOn(pmID)
	pOns := make([]float64, 0, len(hosted)+1)
	pOffs := make([]float64, 0, len(hosted)+1)
	for _, h := range hosted {
		pOns = append(pOns, h.POn)
		pOffs = append(pOffs, h.POff)
	}
	pOns = append(pOns, vm.POn)
	pOffs = append(pOffs, vm.POff)
	res, err := queuing.MapCalHeteroTraced(pOns, pOffs, s.Rho, s.Tracer)
	if err != nil {
		return len(pOns), true // K = k: every VM keeps its own block
	}
	return res.K, false
}

// HeteroViolations audits a placement under the exact heterogeneous model:
// for each used PM, Σ R_b + max R_e · MapCalHetero(hosted).K must fit. It is
// the ExactHetero counterpart of cloud.CheckReserved.
func HeteroViolations(p *cloud.Placement, rho float64) ([]cloud.Violation, error) {
	var out []cloud.Violation
	for _, pmID := range p.UsedPMs() {
		hosted := p.VMsOn(pmID)
		pOns := make([]float64, len(hosted))
		pOffs := make([]float64, len(hosted))
		for i, h := range hosted {
			pOns[i], pOffs[i] = h.POn, h.POff
		}
		res, err := queuing.MapCalHetero(pOns, pOffs, rho)
		if err != nil {
			return nil, err
		}
		pm, _ := p.PM(pmID)
		footprint := p.SumRb(pmID) + p.MaxRe(pmID)*float64(res.K)
		if footprint > pm.Capacity+capEps {
			out = append(out, cloud.Violation{
				PMID: pmID, Footprint: footprint, Capacity: pm.Capacity,
				Detail: "exact heterogeneous reservation constraint",
			})
		}
	}
	return out, nil
}

// BuildRecord renders a placement produced by this strategy as the audit
// record consumed by cmd/consolidate, including per-PM Eq. (17) accounting.
func (s QueuingFFD) BuildRecord(res *Result, table *queuing.MappingTable) *cloud.PlacementRecord {
	rec := &cloud.PlacementRecord{
		Strategy: s.Name(),
		UsedPMs:  res.UsedPMs(),
		Params: map[string]string{
			"rho": fmt.Sprintf("%g", s.Rho),
			"d":   fmt.Sprintf("%d", s.MaxVMsPerPM),
		},
	}
	for _, vm := range res.Unplaced {
		rec.Unplaced = append(rec.Unplaced, vm.ID)
	}
	p := res.Placement
	for _, pmID := range p.UsedPMs() {
		pm, _ := p.PM(pmID)
		var ids []int
		for _, vm := range p.VMsOn(pmID) {
			ids = append(ids, vm.ID)
		}
		k := p.CountOn(pmID)
		rec.Hosts = append(rec.Hosts, cloud.HostRecord{
			PMID:        pmID,
			Capacity:    pm.Capacity,
			VMIDs:       ids,
			SumRb:       p.SumRb(pmID),
			SumRp:       p.SumRp(pmID),
			MaxRe:       p.MaxRe(pmID),
			Blocks:      table.Blocks(k),
			Reservation: p.ReservationSize(pmID, table),
			Footprint:   p.ReservedFootprint(pmID, table),
		})
	}
	return rec
}
