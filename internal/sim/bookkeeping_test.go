package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/workload"
)

// naiveTally is the per-interval, per-VM SLA accounting the engine used to
// do inside the measurement pass, kept here the slow way: every interval,
// every VM on a measured PM counts one observation, and one violation when
// that PM was over capacity.
type naiveTally struct {
	observed, violated map[int]int
}

// checkedStep runs one simulator interval, charges it to the naive tally, and
// recounts the ledger's incremental per-PM ON counts.
//
// Measurement happens mid-step — after crash evacuation and stranded-VM
// re-placement, before retries and reactive migrations — so the hosting it
// saw is the post-step placement with this step's migration events undone in
// reverse order.
func checkedStep(t *testing.T, s *Simulator, interval int, tl *naiveTally) {
	t.Helper()
	l := s.led
	obs0 := append([]int32(nil), l.pmObserved...)
	viol0 := append([]int32(nil), l.pmViolation...)
	ev0 := len(s.events)
	if err := s.step(interval); err != nil {
		t.Fatal(err)
	}
	host := make(map[int]int)
	for _, vm := range s.placement.VMs() {
		host[vm.ID], _ = s.placement.PMOf(vm.ID)
	}
	for i := len(s.events) - 1; i >= ev0; i-- {
		host[s.events[i].VMID] = s.events[i].FromPM
	}
	for id, pmID := range host {
		pos := l.pmPos[pmID]
		switch l.pmObserved[pos] - obs0[pos] {
		case 0:
		case 1:
			tl.observed[id]++
			if l.pmViolation[pos] != viol0[pos] {
				tl.violated[id]++
			}
		default:
			t.Fatalf("interval %d: PM %d measured %d times", interval, pmID, l.pmObserved[pos]-obs0[pos])
		}
	}
	requireOnCounts(t, l, interval)
}

// requireOnCounts recounts every PM's ON tenants from the cached VM states.
func requireOnCounts(t *testing.T, l *ledger, interval int) {
	t.Helper()
	for pos, hosted := range l.hosted {
		on := int32(0)
		for _, vi := range hosted {
			if l.vmState[vi] == markov.On {
				on++
			}
		}
		if l.pmOn[pos] != on {
			t.Fatalf("interval %d: PM %d ledger ON count %d, recount %d", interval, l.pms[pos].ID, l.pmOn[pos], on)
		}
	}
}

// requireTally compares the ledger's base-and-fold per-VM counts, and the
// report's ratios built from them, with the naive tally.
func requireTally(t *testing.T, s *Simulator, tl *naiveTally) {
	t.Helper()
	l := s.led
	wantRatio := make(map[int]float64)
	for vi, id := range l.vmIDs {
		obs, viol := l.vmCounts(vi)
		if int(obs) != tl.observed[id] || int(viol) != tl.violated[id] {
			t.Fatalf("VM %d: ledger counts %d observed / %d violated, naive tally %d / %d",
				id, obs, viol, tl.observed[id], tl.violated[id])
		}
		if obs > 0 {
			wantRatio[id] = float64(tl.violated[id]) / float64(tl.observed[id])
		}
	}
	if got := s.report().VMViolationRatio; !reflect.DeepEqual(got, wantRatio) {
		t.Fatal("Report.VMViolationRatio differs from the naive tally's ratios")
	}
}

func TestPerVMCountsMatchNaiveTally(t *testing.T) {
	newTally := func() *naiveTally {
		return &naiveTally{observed: make(map[int]int), violated: make(map[int]int)}
	}
	t.Run("migrate", func(t *testing.T) {
		placement, table := buildPlacement(t, core.FFDByRb{}, 200, 99)
		cfg := Config{Intervals: 100, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1}
		s, err := New(placement, table, cfg, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally()
		for i := 0; i < cfg.Intervals; i++ {
			checkedStep(t, s, i, tl)
		}
		if len(s.events) == 0 {
			t.Fatal("scenario triggers no migrations")
		}
		requireTally(t, s, tl)
	})
	t.Run("evacuate and strand", func(t *testing.T) {
		// Half of an exactly-full pool goes down for 20 intervals: evacuees
		// strand (unobserved while unhosted), are re-placed when PMs return,
		// and failed migrations retry across intervals.
		vms, pms := goldenFleet(t, 120, 5, nil)
		plan := stubPlan{
			down:  func(pmID, interval int) bool { return pmID%2 == 0 && interval >= 10 && interval < 30 },
			fails: func(interval, vmID, attempt int) bool { return attempt == 1 && (interval+vmID)%3 == 0 },
		}
		cfg := Config{Intervals: 80, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Faults: plan}
		fleet, err := workload.NewHashedFleet(vms, 5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithSource(goldenTightPlacement(t, vms, pms), nil, cfg, fleet, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally()
		for i := 0; i < cfg.Intervals; i++ {
			checkedStep(t, s, i, tl)
		}
		if fr := s.faultReport(); fr.EvacuationLatencyMean == 0 || fr.MigrationRetries == 0 {
			t.Fatalf("scenario misses stranding or retries: %+v", fr)
		}
		requireTally(t, s, tl)
	})
	t.Run("controller rollback", func(t *testing.T) {
		placement, table := buildPlacement(t, core.FFDByRb{}, 60, 97)
		plan := stubPlan{
			down:  func(pmID, interval int) bool { return pmID%7 == 0 && interval >= 20 && interval < 40 },
			fails: func(interval, vmID, attempt int) bool { return (interval+vmID)%5 == 0 && attempt == 1 },
		}
		cfg := Config{Intervals: 80, Rho: 0.01, EnableMigration: true, Faults: plan}
		c, err := NewController(placement, table, cfg, queueStrategy(), 20, rand.New(rand.NewSource(97)))
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally()
		for i := 0; i < cfg.Intervals; i++ {
			if i > 0 && i%c.every == 0 {
				// Plan moves and rollbacks re-attach VMs between intervals.
				if err := c.reconsolidate(i); err != nil {
					t.Fatal(err)
				}
				requireOnCounts(t, c.inner.led, i)
			}
			checkedStep(t, c.inner, i, tl)
		}
		if c.rollbacks == 0 || c.plannedMoves == 0 {
			t.Fatalf("scenario misses rollback (%d) or plan execution (%d)", c.rollbacks, c.plannedMoves)
		}
		requireTally(t, c.inner, tl)
	})
}
