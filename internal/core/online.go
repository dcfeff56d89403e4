package core

import (
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/queuing"
)

// Online adapts QueuingFFD to the online situation of §IV-E: single VM
// arrivals are placed on the first PM satisfying Eq. (17), departures simply
// shrink the queue on the affected PM (the reservation is a function of the
// host set, so it "recalculates" automatically), and batch arrivals reuse the
// full Algorithm 2 ordering over the batch.
//
// Heterogeneous fleets round (p_on, p_off) per the strategy's policy; as the
// paper notes, arrivals and departures drift the rounded values, so
// RefreshTable supports the periodic recalculation it prescribes.
type Online struct {
	strategy QueuingFFD
	table    *queuing.MappingTable
	place    *cloud.Placement
	// index is the persistent first-fit index maintained across
	// Arrive/Depart (nil under PlacerLinear). Its scoring closure reads
	// o.table at call time, so RefreshTable only has to rescore, not rebuild.
	index *placeIndex
	// positions is RefreshPMs' reused scratch: the batch's tree positions.
	positions []int

	// Workers caps how many goroutines the bulk rescoring paths —
	// RefreshTable's whole-index rebuild and RefreshPMs' dirty-set rescore —
	// fan out over. Values ≤ 1 run on the caller's goroutine. Scores are pure
	// functions of the placement, so every worker count yields bit-identical
	// index state; Workers only changes wall-clock. Callers must not mutate
	// the Online concurrently with these methods (the usual Online contract).
	Workers int
}

// NewOnline creates an online consolidator over an (initially empty) PM pool.
// The mapping table is seeded from the given switch probabilities. Tables are
// fetched through the strategy's TableCache (the process-wide shared cache by
// default), so constructing many Online instances — or refreshing one — for a
// cohort already seen anywhere in the process reuses the solved table.
func NewOnline(strategy QueuingFFD, pms []cloud.PM, pOn, pOff float64) (*Online, error) {
	if strategy.MaxVMsPerPM < 1 {
		return nil, fmt.Errorf("core: online consolidator needs MaxVMsPerPM ≥ 1, got %d", strategy.MaxVMsPerPM)
	}
	table, err := strategy.tables().NewMappingTable(strategy.MaxVMsPerPM, pOn, pOff, strategy.Rho)
	if err != nil {
		return nil, err
	}
	place, err := cloud.NewPlacement(pms)
	if err != nil {
		return nil, err
	}
	o := &Online{strategy: strategy, table: table, place: place}
	if strategy.Placer == PlacerIndexed {
		spec := strategy.fitSpec(func() *queuing.MappingTable { return o.table })
		o.index = newPlaceIndex(place, spec)
	}
	return o, nil
}

// Placement exposes the live placement (callers must treat it as read-only;
// use Arrive/Depart to mutate).
func (o *Online) Placement() *cloud.Placement { return o.place }

// Table exposes the current mapping table.
func (o *Online) Table() *queuing.MappingTable { return o.table }

// Arrive places one VM on the first PM satisfying Eq. (17) and returns the
// chosen PM. It returns an error wrapping cloud.ErrNoCapacity when no PM can
// admit the VM.
func (o *Online) Arrive(vm cloud.VM) (int, error) {
	pmID, ok, err := o.TryArrive(vm)
	if err == nil && !ok {
		err = fmt.Errorf("core: no PM can admit VM %d under Eq. (17): %w", vm.ID, cloud.ErrNoCapacity)
	}
	return pmID, err
}

// TryArrive is Arrive with pool exhaustion reported as ok == false instead of
// an error value: a refusal is an ordinary outcome on a saturated pool, and a
// caller that only counts or collects refusals — a batch commit — should not
// pay for an error text nobody reads. err is reserved for an invalid VM or a
// failed assignment (a duplicate id); ok is false whenever err is non-nil.
func (o *Online) TryArrive(vm cloud.VM) (pmID int, ok bool, err error) {
	if err := vm.Validate(); err != nil {
		return 0, false, err
	}
	if o.index != nil {
		pmID, ok = o.index.firstFit(o.place, vm, func(pmID int) bool {
			return o.strategy.admit(o.place, vm, pmID, o.table)
		})
		if !ok {
			return 0, false, nil
		}
		if err := o.place.Assign(vm, pmID); err != nil {
			return 0, false, err
		}
		o.index.refresh(o.place, pmID)
		return pmID, true, nil
	}
	for i := 0; i < o.place.NumPMs(); i++ {
		if pmID := o.place.PMAt(i).ID; o.strategy.admit(o.place, vm, pmID, o.table) {
			if err := o.place.Assign(vm, pmID); err != nil {
				return 0, false, err
			}
			return pmID, true, nil
		}
	}
	return 0, false, nil
}

// Depart removes a VM; the PM's queue size shrinks implicitly because the
// reservation is recomputed from the remaining host set.
func (o *Online) Depart(vmID int) error {
	pmID, err := o.place.Remove(vmID)
	if err != nil {
		return err
	}
	if o.index != nil {
		o.index.refresh(o.place, pmID)
	}
	return nil
}

// DepartNoRefresh removes a VM without rescoring its former host in the
// first-fit index, returning the PM the VM was on. It exists for bulk
// departure application: callers remove a whole batch, collect the touched
// PM ids, and rescore them once with RefreshPMs — the index is stale in
// between, so nothing may run Arrive until the rescore lands. The final index
// state is identical to per-departure Depart calls (scores are functions of
// the final placement; intermediate values are never observed).
func (o *Online) DepartNoRefresh(vmID int) (int, error) {
	return o.place.Remove(vmID)
}

// RefreshPMs rescores the given PMs in the first-fit index — the second half
// of the DepartNoRefresh protocol. Duplicate and unknown ids are tolerated
// (deduped and skipped respectively); the rescoring fans out over
// Workers goroutines and merges deterministically, so the resulting index is
// bit-identical at every worker count. A no-op under PlacerLinear.
func (o *Online) RefreshPMs(pmIDs []int) {
	if o.index == nil || len(pmIDs) == 0 {
		return
	}
	if len(pmIDs) == 1 {
		// One PM — every unbatched departure — is a plain point update:
		// nothing to sort, dedup or fan out, and nothing to allocate.
		o.index.refresh(o.place, pmIDs[0])
		return
	}
	positions := o.positions[:0]
	for _, id := range pmIDs {
		if pos, ok := o.place.PosOf(id); ok {
			positions = append(positions, pos)
		}
	}
	o.positions = positions // keep the grown buffer for the next batch
	sort.Ints(positions)
	// Dedup in place: the same PM often sheds several VMs in one batch.
	uniq := positions[:0]
	for i, pos := range positions {
		if i == 0 || pos != positions[i-1] {
			uniq = append(uniq, pos)
		}
	}
	o.index.refreshPositions(o.place, uniq, o.Workers)
}

// ArriveBatch places a batch of new VMs using the same cluster-and-sort
// scheme as Algorithm 2 ("when a batch of new VMs arrives, we use the same
// scheme to place them"). VMs that fit nowhere are returned in unplaced; any
// failure other than pool exhaustion (a corrupted assignment, a duplicate VM
// id) aborts the batch and is returned as the error, leaving the
// already-placed prefix in place.
func (o *Online) ArriveBatch(vms []cloud.VM) (unplaced []cloud.VM, err error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	ordered, err := o.strategy.order(vms)
	if err != nil {
		return nil, err
	}
	for _, vm := range ordered {
		_, ok, err := o.TryArrive(vm)
		if err != nil {
			return nil, err
		}
		if !ok {
			unplaced = append(unplaced, vm)
		}
	}
	return unplaced, nil
}

// RefreshTable recomputes the mapping table from the currently placed fleet's
// rounded switch probabilities — the periodic recalculation §IV-E calls for
// when heterogeneous arrivals/departures drift the rounded values. It returns
// an error (leaving the old table in place) when the placement is empty.
func (o *Online) RefreshTable() error {
	vms := o.place.VMs()
	if len(vms) == 0 {
		return fmt.Errorf("core: cannot refresh table from an empty placement")
	}
	pOn, pOff, err := RoundSwitchProbabilities(vms, o.strategy.Rounding)
	if err != nil {
		return err
	}
	table, err := o.strategy.tables().NewMappingTable(o.strategy.MaxVMsPerPM, pOn, pOff, o.strategy.Rho)
	if err != nil {
		return err
	}
	o.table = table
	if o.index != nil {
		// The scores embed mapping(k+1); a new table invalidates all of them.
		// The rebuild fans out over Workers and merges with one bottom-up
		// Fill — bit-identical to the sequential rescore at any worker count.
		o.index.refreshAllParallel(o.place, o.Workers)
	}
	return nil
}

// Overflows reports PMs whose current host set no longer satisfies Eq. (17)
// with the current table — possible after RefreshTable tightens the mapping.
// These PMs are migration candidates for the dynamic scheduler.
func (o *Online) Overflows() []cloud.Violation {
	return cloud.CheckReserved(o.place, o.table)
}
