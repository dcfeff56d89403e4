package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/markov"
)

func TestPlaceRecachesWorkloadState(t *testing.T) {
	// place must cache the state/boost the given demand was derived from;
	// a VM re-attached after drifting while detached must not keep the
	// stale state it was detached with.
	l := newLedger([]cloud.PM{{ID: 0, Capacity: 10}}, 4)
	vm := cloud.VM{ID: 7, POn: 0.1, POff: 0.1, Rb: 1, Re: 2}
	l.place(vm, 0, markov.On, 1.5, vm.Demand(markov.On)*1.5)
	vi := l.indexOf(vm.ID)
	if l.vmState[vi] != markov.On || l.vmBoost[vi] != 1.5 {
		t.Fatalf("cached (state, boost) = (%v, %v), want (On, 1.5)", l.vmState[vi], l.vmBoost[vi])
	}
	l.displace(vm.ID)
	l.place(vm, 0, markov.Off, 1, vm.Demand(markov.Off))
	if l.vmState[vi] != markov.Off {
		t.Errorf("re-placed VM kept stale cached state %v, want Off", l.vmState[vi])
	}
	if l.vmBoost[vi] != 1 {
		t.Errorf("re-placed VM kept stale cached boost %v, want 1", l.vmBoost[vi])
	}
	if got, want := l.eff[0], vm.Demand(markov.Off); got != want {
		t.Errorf("eff = %v, want %v", got, want)
	}
}

func TestReattachDriftedVMResyncsDemand(t *testing.T) {
	// Review scenario for the stranded-evacuee path: a VM detached while ON,
	// drifting OFF while stranded, re-placed with the OFF demand, then
	// flipping back ON. The sync pass must detect the flip — the skip check
	// compares against the state cached at re-placement, not the state the
	// VM was detached with.
	placement, table := buildPlacement(t, queueStrategy(), 20, 1)
	s, err := New(placement, table, Config{Intervals: 10, Rho: 0.01}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	vmID := s.led.vmIDs[0]
	vm := s.led.vmSpec[0]
	states := make(map[int]markov.State, len(s.led.vmIDs))
	for _, id := range s.led.vmIDs {
		states[id] = markov.Off
	}
	sync := func() {
		scr := s.borrowScratches()
		defer s.releaseScratches()
		if err := s.syncLoads(states, scr); err != nil {
			t.Fatal(err)
		}
	}

	states[vmID] = markov.On
	sync() // cache state On, fold demand(On)

	pmID, err := s.detachVM(vmID)
	if err != nil {
		t.Fatal(err)
	}
	states[vmID] = markov.Off // drifts while detached
	if err := s.attachVM(vm, pmID, markov.Off, 1, vm.Demand(markov.Off)); err != nil {
		t.Fatal(err)
	}

	states[vmID] = markov.On // flips back after re-placement
	sync()

	vi := s.led.indexOf(vmID)
	if got, want := s.led.vmDem[vi], vm.Demand(markov.On); got != want {
		t.Errorf("folded demand = %v, want demand(On) = %v", got, want)
	}
	pos := s.led.pmPos[pmID]
	fresh := s.led.overhead[pos]
	for _, hv := range s.led.hosted[pos] {
		fresh += s.led.vmSpec[hv].Demand(states[s.led.vmIDs[hv]])
	}
	if math.Abs(s.led.eff[pos]-fresh) > 1e-12 {
		t.Errorf("eff = %v, want from-scratch load %v", s.led.eff[pos], fresh)
	}
}

func TestRotateOverheadDuplicateStragglerCarryOver(t *testing.T) {
	// The same position can land in ovhNextDirty twice — a successful retry
	// and a fresh migration from one PM both straggling in one interval.
	// The promote pass must keep both carried-over charges.
	l := newLedger([]cloud.PM{{ID: 0, Capacity: 10}, {ID: 1, Capacity: 10}}, 4)
	l.charge(0, 1.0)
	l.chargeNext(0, 0.5)
	l.charge(0, 2.0)
	l.chargeNext(0, 0.25)
	l.rotateOverhead()
	if got := l.overhead[0]; got != 0.75 {
		t.Errorf("promoted overhead = %v, want 0.75", got)
	}
	if got := l.eff[0]; got != 0.75 {
		t.Errorf("eff = %v, want 0.75", got)
	}
	l.rotateOverhead()
	if l.overhead[0] != 0 || l.eff[0] != 0 {
		t.Errorf("after expiry overhead = %v, eff = %v, want 0, 0", l.overhead[0], l.eff[0])
	}
}

func TestLedgerWindowBasics(t *testing.T) {
	l := newLedger([]cloud.PM{{ID: 0, Capacity: 10}}, 4)
	if l.winCVR(0) != 0 {
		t.Error("empty window should have CVR 0")
	}
	l.winObserve(0, true)
	l.winObserve(0, false)
	if l.winCVR(0) != 0.5 {
		t.Errorf("cvr = %v, want 0.5", l.winCVR(0))
	}
	l.winObserve(0, false)
	l.winObserve(0, false)
	if l.winCVR(0) != 0.25 {
		t.Errorf("cvr = %v, want 0.25", l.winCVR(0))
	}
	// Fifth observation evicts the first (true): CVR drops to 0.
	l.winObserve(0, false)
	if l.winCVR(0) != 0 {
		t.Errorf("cvr after eviction = %v, want 0", l.winCVR(0))
	}
}

func TestLedgerWindowEvictionAccounting(t *testing.T) {
	l := newLedger([]cloud.PM{{ID: 0, Capacity: 10}}, 3)
	for i := 0; i < 10; i++ {
		l.winObserve(0, true)
	}
	if l.winCVR(0) != 1 {
		t.Errorf("all-true window cvr = %v", l.winCVR(0))
	}
	for i := 0; i < 3; i++ {
		l.winObserve(0, false)
	}
	if l.winCVR(0) != 0 {
		t.Errorf("all-false window cvr = %v", l.winCVR(0))
	}
}

func TestLedgerWindowResetAndIsolation(t *testing.T) {
	// Windows of neighbouring PMs share one flat buffer; observations and
	// resets on one position must never leak into another.
	l := newLedger([]cloud.PM{{ID: 0, Capacity: 10}, {ID: 1, Capacity: 10}, {ID: 2, Capacity: 10}}, 3)
	for i := 0; i < 5; i++ {
		l.winObserve(0, true)
		l.winObserve(2, true)
	}
	l.winObserve(1, true)
	l.winObserve(1, true)
	l.winReset(1)
	if l.winCVR(1) != 0 || l.winFilled[1] != 0 || l.winViol[1] != 0 {
		t.Error("reset did not clear window")
	}
	if l.winCVR(0) != 1 || l.winCVR(2) != 1 {
		t.Errorf("reset of pos 1 bled into neighbours: cvr = %v, %v", l.winCVR(0), l.winCVR(2))
	}
	l.winObserve(1, false)
	if l.winCVR(1) != 0 {
		t.Error("post-reset observation wrong")
	}
	l.resetWindows()
	for pos := 0; pos < 3; pos++ {
		if l.winCVR(pos) != 0 || l.winFilled[pos] != 0 {
			t.Errorf("resetWindows left pos %d dirty", pos)
		}
	}
}
