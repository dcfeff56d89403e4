package sim

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/fitindex"
	"repro/internal/markov"
)

// ledger is the simulator's flat, index-addressed mirror of the placement:
// dense per-PM load accumulators and per-VM demand caches that replace the
// per-step map walks and full pmLoad recomputations of the original engine.
//
// PMs are addressed by *position* — their rank in the id-sorted pool — and
// VMs by a dense registration index, so the per-interval hot path touches
// slices, not maps: the source's state map is scanned once into a dense
// column (loadStates), per-PM ON counts and measurement counters are kept
// incrementally, and per-VM SLA counts derive from their host's counters
// (vmCounts). Each PM's folded load is recomputed with the exact
// overhead-first, id-ordered summation the old pmLoad used, but only when one
// of its inputs changed (a VM's state flipped, a migration moved a VM, or an
// overhead charge landed); untouched PMs keep last interval's bit-identical
// value.
//
// Two fitindex trees answer the scheduler's target queries in O(log m):
// onTree orders powered-on PMs by (effective load, position) — the old
// sort-all-candidates scan of pickTarget — and idleTree finds the lowest-id
// idle PM whose capacity fits a demand. Down PMs are excluded from both.
type ledger struct {
	// PM side, indexed by position (= rank of the PM id in the sorted pool).
	pms          []cloud.PM
	pmID32       []int32     // hot column: pms[pos].ID
	pmCap        []float64   // hot column: pms[pos].Capacity
	pmPos        map[int]int // PM id → position
	eff          []float64   // folded load: overhead + Σ hosted demand
	overhead     []float64   // migration overhead charged this interval
	overheadNext []float64   // straggler carry-over for the next interval
	ovhDirty     []int       // positions that may hold nonzero overhead
	ovhNextDirty []int       // positions that may hold nonzero overheadNext
	hosted       [][]int32   // VM indices per PM, sorted by VM id
	pmOn         []int32     // hosted VMs whose cached state is ON
	down         []bool      // crashed PMs (mirrors Simulator.downPMs)

	// Cumulative measurement counters: intervals the PM was measured (up and
	// hosting) and intervals it was found violated. They are the run's CVR
	// meter, and — through the per-VM bases below — its per-VM SLA accounting.
	pmObserved  []int32
	pmViolation []int32

	// Per-PM violation windows, flattened structure-of-arrays style: PM pos p
	// owns winBuf[p*winSize : (p+1)*winSize] as a ring buffer of the last
	// winSize violation booleans, with its cursor, fill level and running
	// violation count in the parallel int32 columns. One contiguous block for
	// the whole fleet replaces a pointer chase per measured PM, and the
	// measurement pass walks the columns cache-linearly in position order.
	winSize   int
	winBuf    []bool
	winNext   []int32
	winFilled []int32
	winViol   []int32

	onTree   *fitindex.MinTree // eff of up, hosting PMs; +Inf otherwise
	idleTree *fitindex.MaxTree // capacity of up, idle PMs; -Inf otherwise
	scratch  fitindex.AscendScratch

	// VM side, indexed by dense registration order. seed registers the
	// initial fleet host by host, so the position-ordered sync walk reads
	// these columns front to back.
	vmIDs   []int
	vmIdx   *cloud.IDIndex // VM id → registration index
	vmSpec  []cloud.VM
	vmState []markov.State
	vmNext  []markov.State // this interval's source states (see loadStates)
	vmDem   []float64      // demand currently folded into the host's eff
	vmBoost []float64      // overshoot multiplier baked into vmDem
	vmHome  []int32        // host position, -1 when detached

	// Per-VM SLA accounting. A violated PM degrades every tenant on it, so a
	// VM is observed (violated) exactly when its host is: an attached VM's
	// counts are its host's cumulative counters minus their values at attach
	// (the bases), and displace folds that difference into the VM's own
	// totals. Measurement therefore never touches per-VM state.
	vmObserved  []int32 // totals over completed stays
	vmViolation []int32
	vmObsBase   []int32 // host counters at attach
	vmViolBase  []int32
}

// newLedger builds an empty ledger over the id-sorted PM pool, with
// violation windows of the given length (the Config.Window setting).
func newLedger(pms []cloud.PM, window int) *ledger {
	if window < 1 {
		window = 1
	}
	m := len(pms)
	l := &ledger{
		pms:          pms,
		pmID32:       make([]int32, m),
		pmCap:        make([]float64, m),
		pmPos:        make(map[int]int, m),
		eff:          make([]float64, m),
		overhead:     make([]float64, m),
		overheadNext: make([]float64, m),
		hosted:       make([][]int32, m),
		pmOn:         make([]int32, m),
		down:         make([]bool, m),
		pmObserved:   make([]int32, m),
		pmViolation:  make([]int32, m),
		winSize:      window,
		winBuf:       make([]bool, m*window),
		winNext:      make([]int32, m),
		winFilled:    make([]int32, m),
		winViol:      make([]int32, m),
		onTree:       fitindex.NewMinTree(m),
		idleTree:     fitindex.NewMaxTree(m),
		vmIdx:        cloud.NewIDIndex(nil),
	}
	for i, pm := range pms {
		l.pmID32[i] = int32(pm.ID)
		l.pmCap[i] = pm.Capacity
		l.pmPos[pm.ID] = i
		l.refreshPM(i)
	}
	return l
}

// winObserve pushes one violation observation into the PM's window,
// evicting the oldest once the window is full.
func (l *ledger) winObserve(pos int, violated bool) {
	base := pos * l.winSize
	next := int(l.winNext[pos])
	if int(l.winFilled[pos]) == l.winSize {
		if l.winBuf[base+next] {
			l.winViol[pos]--
		}
	} else {
		l.winFilled[pos]++
	}
	l.winBuf[base+next] = violated
	if violated {
		l.winViol[pos]++
	}
	if next++; next == l.winSize {
		next = 0
	}
	l.winNext[pos] = int32(next)
}

// winCVR returns the violation ratio over the filled part of the PM's window.
func (l *ledger) winCVR(pos int) float64 {
	if l.winFilled[pos] == 0 {
		return 0
	}
	return float64(l.winViol[pos]) / float64(l.winFilled[pos])
}

// winReset clears one PM's window (after a migration relieves it).
func (l *ledger) winReset(pos int) {
	base := pos * l.winSize
	clear(l.winBuf[base : base+l.winSize])
	l.winNext[pos], l.winFilled[pos], l.winViol[pos] = 0, 0, 0
}

// resetWindows clears every PM's window (after a reconsolidation plan
// rearranged the fleet).
func (l *ledger) resetWindows() {
	clear(l.winBuf)
	clear(l.winNext)
	clear(l.winFilled)
	clear(l.winViol)
}

// vmIndex returns the VM's dense index, registering it — detached, in the
// given state at that state's exact demand level — on first sight.
func (l *ledger) vmIndex(vm cloud.VM, st markov.State) int {
	if vi, ok := l.vmIdx.Pos(vm.ID); ok {
		return vi
	}
	vi := len(l.vmIDs)
	l.vmIdx.Add(vm.ID, vi)
	l.vmIDs = append(l.vmIDs, vm.ID)
	l.vmSpec = append(l.vmSpec, vm)
	l.vmState = append(l.vmState, st)
	l.vmNext = append(l.vmNext, st)
	l.vmDem = append(l.vmDem, vm.Demand(st))
	l.vmBoost = append(l.vmBoost, 1)
	l.vmHome = append(l.vmHome, -1)
	l.vmObserved = append(l.vmObserved, 0)
	l.vmViolation = append(l.vmViolation, 0)
	l.vmObsBase = append(l.vmObsBase, 0)
	l.vmViolBase = append(l.vmViolBase, 0)
	return vi
}

// seed attaches the placement's whole fleet host by host in position order
// (each host's VMs by ascending id), each VM at its current source state and
// that state's exact demand. Registering in that order makes hosted[pos] a
// run of consecutive indices, so the sync walk reads the VM columns front to
// back; the id index is rebuilt once the id space is known, to size its
// dense range.
func (l *ledger) seed(p *cloud.Placement, states map[int]markov.State) {
	for _, pm := range l.pms {
		for _, vm := range p.VMsOn(pm.ID) {
			st := states[vm.ID]
			l.place(vm, pm.ID, st, 1, vm.Demand(st))
		}
	}
	l.vmIdx = cloud.NewIDIndex(l.vmIDs)
}

// loadStates refills the dense new-state column from the source's map in one
// scan: an id absent from the map reads Off (as a map probe's zero value
// did), and ids the ledger never registered are ignored. Only non-Off entries
// need the id lookup — the column was just cleared to Off.
func (l *ledger) loadStates(states map[int]markov.State) {
	clear(l.vmNext)
	for id, st := range states {
		if st == markov.Off {
			continue
		}
		if vi, ok := l.vmIdx.Pos(id); ok {
			l.vmNext[vi] = st
		}
	}
}

// indexOf returns the dense index of a registered VM.
func (l *ledger) indexOf(vmID int) int {
	vi, _ := l.vmIdx.Pos(vmID)
	return vi
}

// stateOf returns the VM's source state this interval.
func (l *ledger) stateOf(vmID int) markov.State { return l.vmNext[l.indexOf(vmID)] }

// vmCounts returns the intervals the VM was observed on a measured host and
// the intervals that host was violated, over the whole run so far.
func (l *ledger) vmCounts(vi int) (observed, violated int32) {
	observed, violated = l.vmObserved[vi], l.vmViolation[vi]
	if pos := l.vmHome[vi]; pos >= 0 {
		observed += l.pmObserved[pos] - l.vmObsBase[vi]
		violated += l.pmViolation[pos] - l.vmViolBase[vi]
	}
	return observed, violated
}

// place attaches a VM to a PM, folding the given current demand into the
// target's load. st and boost name the workload state and overshoot
// multiplier the demand was derived from; they are cached alongside it so
// syncRange's skip check stays sound. A VM re-attached after drifting while
// detached (a stranded evacuee, say) must not keep the stale state it was
// detached with — the skip check would then miss a later flip back to that
// state and leave the wrong demand folded for the rest of the run.
func (l *ledger) place(vm cloud.VM, pmID int, st markov.State, boost, demand float64) {
	vi := l.vmIndex(vm, st)
	l.vmSpec[vi] = vm
	l.vmState[vi] = st
	l.vmBoost[vi] = boost
	l.vmDem[vi] = demand
	pos := l.pmPos[pmID]
	ids := l.hosted[pos]
	i := sort.Search(len(ids), func(i int) bool { return l.vmIDs[ids[i]] >= vm.ID })
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = int32(vi)
	l.hosted[pos] = ids
	l.vmHome[vi] = int32(pos)
	l.pmOn[pos] += int32(st)
	l.vmObsBase[vi], l.vmViolBase[vi] = l.pmObserved[pos], l.pmViolation[pos]
	l.recompute(pos)
}

// displace detaches a VM from its host, folding the stay's observations into
// the VM's totals.
func (l *ledger) displace(vmID int) {
	vi := l.indexOf(vmID)
	pos := int(l.vmHome[vi])
	ids := l.hosted[pos]
	i := sort.Search(len(ids), func(i int) bool { return l.vmIDs[ids[i]] >= vmID })
	copy(ids[i:], ids[i+1:])
	l.hosted[pos] = ids[:len(ids)-1]
	l.vmObserved[vi], l.vmViolation[vi] = l.vmCounts(vi)
	l.vmHome[vi] = -1
	l.pmOn[pos] -= int32(l.vmState[vi])
	l.recompute(pos)
}

// fold recomputes the PM's effective load from scratch with the same
// summation order the old pmLoad used (overhead first, then hosted VMs by
// ascending id), so the result is bit-identical to a fresh recomputation.
func (l *ledger) fold(pos int) {
	load := l.overhead[pos]
	for _, vi := range l.hosted[pos] {
		load += l.vmDem[vi]
	}
	l.eff[pos] = load
}

// recompute folds the PM's load and pushes the new value into the trees.
// Only sequential phases may call it; parallel sync passes call fold and
// defer the tree refresh to the merge step.
func (l *ledger) recompute(pos int) {
	l.fold(pos)
	l.refreshPM(pos)
}

// refreshPM re-derives the PM's tree entries from its down/hosting state.
func (l *ledger) refreshPM(pos int) {
	switch {
	case l.down[pos]:
		l.onTree.Set(pos, fitindex.PosInf)
		l.idleTree.Set(pos, fitindex.NegInf)
	case len(l.hosted[pos]) > 0:
		l.onTree.Set(pos, l.eff[pos])
		l.idleTree.Set(pos, fitindex.NegInf)
	default:
		l.onTree.Set(pos, fitindex.PosInf)
		l.idleTree.Set(pos, l.pmCap[pos])
	}
}

// setDown flips the PM's crash state and its tree membership.
func (l *ledger) setDown(pmID int, down bool) {
	pos := l.pmPos[pmID]
	l.down[pos] = down
	l.refreshPM(pos)
}

// charge adds migration overhead to the PM for the current interval.
func (l *ledger) charge(pos int, delta float64) {
	l.overhead[pos] += delta
	l.ovhDirty = append(l.ovhDirty, pos)
	l.recompute(pos)
}

// chargeNext queues straggler overhead for the next interval.
func (l *ledger) chargeNext(pos int, delta float64) {
	l.overheadNext[pos] += delta
	l.ovhNextDirty = append(l.ovhNextDirty, pos)
}

// rotateOverhead expires this interval's overhead charges and promotes the
// straggler carry-over, refolding every touched PM.
func (l *ledger) rotateOverhead() {
	for _, pos := range l.ovhDirty {
		l.overhead[pos] = 0
	}
	for _, pos := range l.ovhNextDirty {
		// += rather than =: the same position can appear twice in
		// ovhNextDirty (a successful retry and a fresh migration from one
		// PM both straggling in one interval); assignment would let the
		// duplicate erase the first promotion. overhead[pos] is zero at
		// this point — only charge() makes it nonzero, and every such
		// position was just cleared by the ovhDirty pass above.
		l.overhead[pos] += l.overheadNext[pos]
		l.overheadNext[pos] = 0
	}
	for _, pos := range l.ovhDirty {
		l.recompute(pos)
	}
	for _, pos := range l.ovhNextDirty {
		l.recompute(pos)
	}
	l.ovhDirty = append(l.ovhDirty[:0], l.ovhNextDirty...)
	l.ovhNextDirty = l.ovhNextDirty[:0]
}
