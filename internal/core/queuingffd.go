package core

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/cluster"
	"repro/internal/fitindex"
	"repro/internal/queuing"
	"repro/internal/telemetry"
)

// BlockSizing selects how the reserved blocks on a PM are sized.
type BlockSizing int

const (
	// BlockMaxRe sizes every block as max R_e of the hosted VMs — the
	// paper's conservative choice (§IV-B), which guarantees any K
	// simultaneous spikes fit regardless of which VMs spike.
	BlockMaxRe BlockSizing = iota
	// BlockTopKRe sizes the reservation as the sum of the K largest R_e
	// among hosted VMs — a tighter bound (at most K VMs spike at once, and
	// the worst case is the K biggest spikes). Used by the ablation bench.
	BlockTopKRe
)

// ClusterMethod selects the first step of the two-step placement.
type ClusterMethod int

const (
	// ClusterRangeBuckets is the paper's simple O(n) clustering.
	ClusterRangeBuckets ClusterMethod = iota
	// ClusterKMeans uses 1-D k-means on R_e (ablation).
	ClusterKMeans
	// ClusterNone skips clustering; VMs are sorted by R_e then R_b
	// descending globally (ablation).
	ClusterNone
	// ClusterQuantiles uses equal-frequency buckets over R_e — robust to
	// skewed spike-size distributions where equal-width buckets collapse
	// (ablation).
	ClusterQuantiles
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
	// NumClusters bounds the number of R_e clusters (0 picks a default of
	// max(1, n/8), mirroring the paper's "similar R_e" granularity).
	NumClusters int
	// Method selects the clustering variant; the zero value is the paper's.
	Method ClusterMethod
	// Sizing selects block sizing; the zero value is the paper's max-R_e.
	Sizing BlockSizing
	// Rounding handles heterogeneous switch probabilities (§IV-E); the zero
	// value (RoundMean) averages them. Irrelevant when the fleet is uniform.
	Rounding RoundingPolicy
	// ExactHetero replaces the §IV-E rounding with the exact
	// Poisson-binomial block computation (queuing.MapCalHetero): admission
	// evaluates each candidate host set's individual switch probabilities,
	// so heterogeneous fleets get the CVR guarantee without rounding error.
	// Costs an O(k²) dynamic program per admission test instead of a table
	// lookup.
	ExactHetero bool
	// Placer selects the first-fit implementation: the zero value places
	// through the segment-tree index (O(n log m)); PlacerLinear keeps the
	// paper's O(n·m) scan as the cross-validation oracle. Both produce
	// identical placements.
	Placer Placer
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
	if s.Placer == PlacerLinear {
		return firstFit(ordered, pms, admit)
	}
	return firstFitIndexed(ordered, pms, admit, s.fitSpec(func() *queuing.MappingTable { return table }), s.Tracer, s.Name())
}

// fitSpec returns the index scoring for Eq. (17) admission. Under the paper's
// max-R_e sizing the score is the exact headroom left for a VM whose R_e does
// not exceed the hosted maximum,
//
//	C_j − Σ R_b − max R_e(T_j) · mapping(|T_j|+1),
//
// an upper bound in general because the true reservation uses
// max(R_e^i, max R_e(T_j)) ≥ max R_e(T_j). The top-K and exact-hetero
// variants fall back to the looser C_j − Σ R_b (their reservation is
// non-negative), trading extra verification probes for soundness.
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
			if s.Sizing == BlockMaxRe && !s.ExactHetero {
				free -= p.MaxRe(pm.ID) * float64(table().Blocks(k+1))
			}
			return free
		},
	}
}

// Order exposes the Algorithm 2 cluster-and-sort (lines 7–9) for callers
// that apply placements themselves — the batched admission service orders
// each coalesced arrival batch with it before committing. The input is not
// mutated; the returned slice is freshly allocated.
func (s QueuingFFD) Order(vms []cloud.VM) ([]cloud.VM, error) {
	return s.order(vms)
}

// order performs Algorithm 2 lines 7–9: cluster by similar R_e, sort clusters
// by R_e descending, sort VMs inside by R_b descending.
func (s QueuingFFD) order(vms []cloud.VM) ([]cloud.VM, error) {
	switch s.Method {
	case ClusterNone:
		out := append([]cloud.VM(nil), vms...)
		sort.SliceStable(out, func(i, j int) bool {
			if out[i].Re != out[j].Re {
				return out[i].Re > out[j].Re
			}
			if out[i].Rb != out[j].Rb {
				return out[i].Rb > out[j].Rb
			}
			return out[i].ID < out[j].ID
		})
		return out, nil
	case ClusterKMeans:
		clusters, err := cluster.ByKMeans(vms, s.numClusters(len(vms)), 50)
		if err != nil {
			return nil, err
		}
		return cluster.SortForPlacement(clusters), nil
	case ClusterQuantiles:
		clusters, err := cluster.ByQuantiles(vms, s.numClusters(len(vms)))
		if err != nil {
			return nil, err
		}
		return cluster.SortForPlacement(clusters), nil
	case ClusterRangeBuckets:
		clusters, err := cluster.ByRangeBuckets(vms, s.numClusters(len(vms)))
		if err != nil {
			return nil, err
		}
		return cluster.SortForPlacement(clusters), nil
	default:
		return nil, fmt.Errorf("core: unknown cluster method %d", s.Method)
	}
}

func (s QueuingFFD) numClusters(n int) int {
	if s.NumClusters > 0 {
		return s.NumClusters
	}
	if n < 8 {
		return 1
	}
	return n / 8
}

// admit evaluates Eq. (17) for vm joining pmID:
//
//	max{R_e^i, max R_e of T_j} · mapping(|T_j|+1) + R_b^i + Σ_{s∈T_j} R_b^s ≤ C_j
//
// (or the top-K variant under BlockTopKRe), plus the d cap.
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
	var reservation float64
	switch s.Sizing {
	case BlockTopKRe:
		reservation = sumTopRe(p, vm, pmID, blocks)
	default: // BlockMaxRe, the paper's rule
		blockSize := vm.Re
		if hosted := p.MaxRe(pmID); hosted > blockSize {
			blockSize = hosted
		}
		reservation = blockSize * float64(blocks)
	}
	lhs := p.SumRb(pmID) + vm.Rb + reservation
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

// sumTopRe returns the sum of the `blocks` largest R_e among the PM's hosted
// VMs plus the candidate.
func sumTopRe(p *cloud.Placement, vm cloud.VM, pmID int, blocks int) float64 {
	res := []float64{vm.Re}
	for _, hosted := range p.VMsOn(pmID) {
		res = append(res, hosted.Re)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(res)))
	if blocks > len(res) {
		blocks = len(res)
	}
	sum := 0.0
	for _, re := range res[:blocks] {
		sum += re
	}
	return sum
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
