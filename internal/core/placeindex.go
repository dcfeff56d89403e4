package core

import (
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/fitindex"
	"repro/internal/telemetry"
)

// First-fit runs through a segment tree over per-PM headroom
// (fitindex.MaxTree): each VM finds its first feasible PM in O(log m) plus
// exact-admission probes, turning Place from O(n·m) into O(n log m). The
// placement is identical to the paper's linear scan (firstFit) — the index
// preserves first-fit order, it only skips PMs the scan would also have
// rejected (the test-side TestPlacerEquivalence holds it to that).
//
// fitSpec equips a strategy's admission constraint with what the first-fit
// index needs: need(vm), the demand queried against the index, and
// score(p, pm), an upper bound on the need the PM can still admit (NegInf for
// a PM excluded outright, e.g. at its VM cap).
//
// Soundness contract: score(p, pm) < need(vm) − capEps must imply that
// admit(p, vm, pm.ID) is false. The index may only skip PMs the linear scan
// would also reject; candidates that clear the score filter are still
// verified with the exact admission test, so over-approximate scores cost
// probes, never correctness.
type fitSpec struct {
	need  func(vm cloud.VM) float64
	score func(p *cloud.Placement, pm cloud.PM) float64
}

// placeIndex is a first-fit index over a placement's PM pool: tree position =
// the PM's position in the placement's id-sorted pool (cloud.Placement.PosOf /
// PMAt — the index keeps no pool copy or id map of its own), tree value = the
// strategy's headroom score.
//
// Scores are pure functions of (placement, PM), so rescoring work can fan out
// over contiguous position ranges — see refreshAllParallel /
// refreshPositions — and merge deterministically: the tree state after a
// rescore depends only on the scores, never the worker count.
type placeIndex struct {
	tree    *fitindex.MaxTree
	spec    fitSpec
	scratch []float64 // reusable score buffer for wholesale rebuilds

	// Instrumentation: queries = first-fit lookups, probes = exact admission
	// tests run on index candidates, hits = lookups resolved by their very
	// first candidate (no false positive).
	queries, probes, hits uint64
}

// newPlaceIndex builds the index for the placement's pool under its current
// host sets.
func newPlaceIndex(p *cloud.Placement, spec fitSpec) *placeIndex {
	ix := &placeIndex{tree: fitindex.NewMaxTree(p.NumPMs()), spec: spec}
	for i := 0; i < p.NumPMs(); i++ {
		ix.tree.Set(i, spec.score(p, p.PMAt(i)))
	}
	return ix
}

// refresh recomputes one PM's score after its host set changed.
func (ix *placeIndex) refresh(p *cloud.Placement, pmID int) {
	if i, ok := p.PosOf(pmID); ok {
		ix.tree.Set(i, ix.spec.score(p, p.PMAt(i)))
	}
}

// refreshAll recomputes every PM's score — needed when the scoring inputs
// change wholesale (e.g. Online.RefreshTable swaps the mapping table).
func (ix *placeIndex) refreshAll(p *cloud.Placement) {
	ix.refreshAllParallel(p, 1)
}

// refreshAllParallel is refreshAll with the scoring fanned out over workers
// contiguous position ranges. Scores land in a flat buffer (each worker owns
// a disjoint range) and one sequential bottom-up Fill rebuilds the tree in
// O(m) — cheaper than m point updates even single-threaded, and bit-identical
// at every worker count because each slot's value is a pure function of the
// placement.
func (ix *placeIndex) refreshAllParallel(p *cloud.Placement, workers int) {
	m := p.NumPMs()
	if cap(ix.scratch) < m {
		ix.scratch = make([]float64, m)
	}
	scores := ix.scratch[:m]
	parallelRanges(m, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			scores[i] = ix.spec.score(p, p.PMAt(i))
		}
	})
	ix.tree.Fill(scores)
}

// refreshPositions rescores the given tree positions, fanning the score
// computation out over workers contiguous sub-ranges of the list and merging
// with sequential point updates in list order. The positions slice must not
// contain duplicates (callers dedup); order does not affect the result.
func (ix *placeIndex) refreshPositions(p *cloud.Placement, positions []int, workers int) {
	n := len(positions)
	if rangeWorkers(n, workers) < 2 {
		// No fan-out — any batch under 2·parallelRangeMin PMs: score and set
		// in one pass. Same tree (a score never reads it), and no closure for
		// parallelRanges to move to the heap on every departure batch.
		for _, pos := range positions {
			ix.tree.Set(pos, ix.spec.score(p, p.PMAt(pos)))
		}
		return
	}
	if cap(ix.scratch) < n {
		ix.scratch = make([]float64, n)
	}
	vals := ix.scratch[:n]
	parallelRanges(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = ix.spec.score(p, p.PMAt(positions[i]))
		}
	})
	for i, pos := range positions {
		ix.tree.Set(pos, vals[i])
	}
}

// parallelRangeMin is the smallest per-worker range worth a goroutine: below
// it the fork/join overhead dwarfs the scoring work.
const parallelRangeMin = 256

// rangeWorkers is how many goroutines parallelRanges gives n items: at most
// workers, each with at least parallelRangeMin items; below 2 it runs inline.
func rangeWorkers(n, workers int) int {
	return min(workers, n/parallelRangeMin)
}

// parallelRanges partitions [0, n) into contiguous ranges and runs fn on one
// goroutine per range — inline when a single worker (or a tiny n) makes the
// fan-out pointless. fn must only write state disjoint per range.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	workers = rangeWorkers(n, workers)
	if workers < 2 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	base, rem := n/workers, n%workers
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + base
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// firstFit returns the lowest-id PM admitting vm, visiting candidates in
// exactly the order a linear scan would: the tree prunes to PMs whose score
// clears the need, each candidate is verified with the exact admission test,
// and a false positive (conservative score over-approximating headroom)
// resumes the search one position further right.
func (ix *placeIndex) firstFit(p *cloud.Placement, vm cloud.VM, admit func(pmID int) bool) (int, bool) {
	need := ix.spec.need(vm) - capEps
	ix.queries++
	first := true
	for from := 0; ; {
		i := ix.tree.FirstAtLeast(from, need)
		if i < 0 {
			return 0, false
		}
		ix.probes++
		if pmID := p.PMAt(i).ID; admit(pmID) {
			if first {
				ix.hits++
			}
			return pmID, true
		}
		first = false
		from = i + 1
	}
}

// emit reports the accumulated index counters as one PlaceIndexEvent.
func (ix *placeIndex) emit(tr telemetry.Tracer, strategy string) {
	tr = telemetry.OrNop(tr)
	if !tr.Enabled() {
		return
	}
	tr.Emit(telemetry.PlaceIndexEvent{
		Strategy: strategy,
		Queries:  ix.queries,
		Probes:   ix.probes,
		Hits:     ix.hits,
	})
}

// firstFitIndexed is the indexed counterpart of firstFit: same placements,
// O(log m) per VM instead of O(m). Like firstFit it expects a fleet its
// caller has already passed through cloud.ValidateVMs.
func firstFitIndexed(vms []cloud.VM, pms []cloud.PM, admit admission, spec fitSpec, tr telemetry.Tracer, strategy string) (*Result, error) {
	placement, err := cloud.NewPlacement(pms)
	if err != nil {
		return nil, err
	}
	ix := newPlaceIndex(placement, spec)
	var unplaced []cloud.VM
	for _, vm := range vms {
		pmID, ok := ix.firstFit(placement, vm, func(pmID int) bool {
			return admit(placement, vm, pmID)
		})
		if !ok {
			unplaced = append(unplaced, vm)
			continue
		}
		if err := placement.Assign(vm, pmID); err != nil {
			return nil, fmt.Errorf("core: assigning VM %d to PM %d: %w", vm.ID, pmID, err)
		}
		ix.refresh(placement, pmID)
	}
	ix.emit(tr, strategy)
	return &Result{Placement: placement, Unplaced: unplaced}, nil
}
