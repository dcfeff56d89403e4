package sim

import (
	"sync"

	"repro/internal/core"
	"repro/internal/markov"
)

// The sharded stepping engine partitions the PM pool into contiguous
// position ranges and runs the two per-interval passes — demand sync and
// measurement — on one worker per shard. Every PM position (and with it
// every hosted VM) is owned by exactly one shard, so the passes write
// disjoint slices; per-PM arithmetic runs in the same order regardless of
// the shard count, and per-shard results are merged in shard-index order.
// A run is therefore bit-identical for any shard count, including 1.
//
// Everything that crosses PM boundaries — migrations, evacuations, retries,
// overhead rotation, and the fitindex tree updates (interior tree nodes are
// shared between positions) — stays in sequential commit phases.

// shardScratch is the per-worker buffer for one step's passes.
type shardScratch struct {
	dirty      []int // PM positions whose folded load changed (tree refresh pending)
	triggered  []int // PM ids whose windowed CVR breached ρ
	violations int

	// Occupancy tallies for the StepEvent probe fields; vms and on are filled
	// by the sync pass only when the run is traced. Pure measurement: they
	// never feed back into simulation state.
	vms, on, offOn, onOff int
	elapsedNs             int64 // this shard's measurement-pass wall time
}

// scratchPool recycles shard scratch buffers across steps and simulators.
var scratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

func (sc *shardScratch) reset() {
	sc.dirty = sc.dirty[:0]
	sc.triggered = sc.triggered[:0]
	sc.violations = 0
	sc.vms, sc.on, sc.offOn, sc.onOff = 0, 0, 0, 0
	sc.elapsedNs = 0
}

// shardBounds splits m positions into k contiguous ranges; entry i covers
// [bounds[i], bounds[i+1]). k is clamped to [1, m]. Delegates to the house
// partitioning rule so the simulator and the shardsvc federation cut ranges
// identically.
func shardBounds(m, k int) []int { return core.ShardBounds(m, k) }

// shardCount returns the number of shards this run steps with.
func (s *Simulator) shardCount() int { return len(s.bounds) - 1 }

// runSharded executes fn over every shard's position range — inline for a
// single shard, on one goroutine per shard otherwise.
func (s *Simulator) runSharded(fn func(shard, lo, hi int)) {
	k := s.shardCount()
	if k == 1 {
		fn(0, s.bounds[0], s.bounds[1])
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, s.bounds[i], s.bounds[i+1])
		}()
	}
	wg.Wait()
}

// borrowScratches leases one scratch per shard from the pool.
func (s *Simulator) borrowScratches() []*shardScratch {
	if s.scr == nil {
		s.scr = make([]*shardScratch, s.shardCount())
	}
	for i := range s.scr {
		sc := scratchPool.Get().(*shardScratch)
		sc.reset()
		s.scr[i] = sc
	}
	return s.scr
}

// releaseScratches returns the step's scratches to the pool.
func (s *Simulator) releaseScratches() {
	for i, sc := range s.scr {
		if sc != nil {
			scratchPool.Put(sc)
			s.scr[i] = nil
		}
	}
}

// syncLoads refreshes every hosted VM's cached demand against the new
// workload states and refolds the PMs whose inputs changed. The source's map
// is scanned once, sequentially, into the ledger's dense new-state column;
// the per-shard passes then touch only slices, and the tree refresh for dirty
// positions happens sequentially afterwards because shards share interior
// tree nodes.
func (s *Simulator) syncLoads(states map[int]markov.State, scr []*shardScratch) error {
	s.led.loadStates(states)
	count := s.tracer.Enabled()
	if s.cfg.RequestNoise {
		// Noise draws from the shared RNG in placement order; config
		// validation pins noisy runs to a single shard.
		if err := s.syncRange(s.bounds[0], s.bounds[1], scr[0], count); err != nil {
			return err
		}
	} else {
		s.runSharded(func(shard, lo, hi int) {
			// syncRange only errors on noisy demand draws, excluded above.
			_ = s.syncRange(lo, hi, scr[shard], count)
		})
	}
	for _, sc := range scr {
		for _, pos := range sc.dirty {
			s.led.refreshPM(pos)
		}
	}
	return nil
}

// syncRange is one shard's demand-sync pass over [lo, hi): each hosted VM's
// cached state against the ledger's new-state column, keeping the PM's ON
// count in step. With count set (traced runs) it also tallies fleet occupancy
// into the scratch — riding the existing hosted-VM walk so obs-on avoids a
// second O(VMs) pass and obs-off pays one predictable branch per VM.
func (s *Simulator) syncRange(lo, hi int, sc *shardScratch, count bool) error {
	l := s.led
	noise := s.cfg.RequestNoise
	faults := s.faultsEnabled()
	for pos := lo; pos < hi; pos++ {
		hosted := l.hosted[pos]
		if len(hosted) == 0 {
			continue
		}
		if count {
			sc.vms += len(hosted)
		}
		changed := false
		for _, vi := range hosted {
			st := l.vmNext[vi]
			boost := 1.0
			if faults {
				if f, ok := s.overshoot[l.vmIDs[vi]]; ok {
					boost = f
				}
			}
			if count {
				// Branch-free ON tally (Off = 0, On = 1); the transition
				// tallies sit past the same state comparison the fast path
				// already takes, so an unchanged VM pays two predictable
				// branches and one add.
				sc.on += int(st)
			}
			if !noise && st == l.vmState[vi] && boost == l.vmBoost[vi] {
				continue
			}
			if st != l.vmState[vi] {
				if st == markov.On {
					l.pmOn[pos]++
					sc.offOn++
				} else {
					l.pmOn[pos]--
					sc.onOff++
				}
			}
			d, err := s.vmDemand(l.vmSpec[vi], st)
			if err != nil {
				return err
			}
			l.vmState[vi] = st
			l.vmBoost[vi] = boost
			l.vmDem[vi] = d
			changed = true
		}
		if changed {
			l.fold(pos)
			sc.dirty = append(sc.dirty, pos)
		}
	}
	return nil
}

// measureRange is one shard's measurement pass: violation check, the PM's
// cumulative CVR counters (which carry the per-VM SLA accounting too — see
// ledger.vmCounts), sliding window, and migration triggering for every up,
// hosting PM in [lo, hi).
func (s *Simulator) measureRange(lo, hi int, sc *shardScratch) {
	l := s.led
	for pos := lo; pos < hi; pos++ {
		if len(l.hosted[pos]) == 0 || l.down[pos] {
			continue
		}
		violated := l.eff[pos] > l.pmCap[pos]+1e-9
		l.pmObserved[pos]++
		if violated {
			l.pmViolation[pos]++
			sc.violations++
		}
		l.winObserve(pos, violated)
		if s.cfg.EnableMigration && l.winCVR(pos) > s.cfg.Rho {
			sc.triggered = append(sc.triggered, int(l.pmID32[pos]))
		}
	}
}
