package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/markov"
)

func hashedTestVMs(n int) []cloud.VM {
	vms := make([]cloud.VM, n)
	for i := range vms {
		vms[i] = cloud.VM{ID: i + 1, Rb: 1, Re: 1, POn: 0.3, POff: 0.4}
	}
	return vms
}

func TestHashedFleetDeterministicAcrossInstances(t *testing.T) {
	vms := hashedTestVMs(64)
	a, err := NewHashedFleet(vms, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHashedFleet(vms, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct rngs to prove the parameter is ignored.
	rngA, rngB := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(999))
	for step := 0; step < 50; step++ {
		a.Step(rngA)
		b.Step(rngB)
		for _, vm := range vms {
			if a.States()[vm.ID] != b.States()[vm.ID] {
				t.Fatalf("step %d VM %d: states diverged", step, vm.ID)
			}
		}
	}
	c, err := NewHashedFleet(vms, 43)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for step := 0; step < 50 && !diverged; step++ {
		c.Step(rngA)
		for _, vm := range vms {
			if c.States()[vm.ID] != a.States()[vm.ID] {
				diverged = true
				break
			}
		}
	}
	if !diverged {
		t.Fatal("seed 43 reproduced seed 42's trajectories")
	}
}

func TestHashedFleetVMsIndependent(t *testing.T) {
	// Removing half the fleet must not change the survivors' trajectories —
	// the property that makes sharded stepping shard-count-invariant.
	vms := hashedTestVMs(32)
	full, err := NewHashedFleet(vms, 7)
	if err != nil {
		t.Fatal(err)
	}
	half, err := NewHashedFleet(vms[:16], 7)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 40; step++ {
		full.Step(nil)
		half.Step(nil)
		for _, vm := range vms[:16] {
			if full.States()[vm.ID] != half.States()[vm.ID] {
				t.Fatalf("step %d VM %d: trajectory depends on fleet membership", step, vm.ID)
			}
		}
	}
}

func TestHashedFleetStationaryFraction(t *testing.T) {
	// Over a long horizon the ON fraction should approach the chain's
	// stationary π_on = POn/(POn+POff).
	vms := hashedTestVMs(200)
	f, err := NewHashedFleet(vms, 11)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 500
	var on, total int
	for step := 0; step < steps; step++ {
		f.Step(nil)
		if step < 50 {
			continue // burn-in from the all-OFF start
		}
		for _, vm := range vms {
			total++
			if f.States()[vm.ID] == markov.On {
				on++
			}
		}
	}
	want := 0.3 / (0.3 + 0.4)
	got := float64(on) / float64(total)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("ON fraction %.4f, want %.4f ± 0.02", got, want)
	}
}

func TestHashedFleetAddRemove(t *testing.T) {
	vms := hashedTestVMs(4)
	f, err := NewHashedFleet(vms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", f.Size())
	}
	if err := f.Add(vms[0], markov.Off); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	extra := cloud.VM{ID: 99, Rb: 1, Re: 1, POn: 0.5, POff: 0.5}
	if err := f.Add(extra, markov.On); err != nil {
		t.Fatal(err)
	}
	if f.States()[99] != markov.On {
		t.Fatal("added VM not in requested start state")
	}
	if err := f.Remove(99); err != nil {
		t.Fatal(err)
	}
	if err := f.Remove(99); err == nil {
		t.Fatal("Remove of unknown VM accepted")
	}
	if f.Size() != 4 {
		t.Fatalf("Size() = %d after add+remove, want 4", f.Size())
	}
	f.AllOff()
	for _, vm := range vms {
		if f.States()[vm.ID] != markov.Off {
			t.Fatal("AllOff left a VM on")
		}
	}
}

func TestHashedFleetRejectsInvalidVMs(t *testing.T) {
	if _, err := NewHashedFleet([]cloud.VM{{ID: 1}, {ID: 1}}, 0); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	f, err := NewHashedFleet(hashedTestVMs(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(cloud.VM{ID: -5}, markov.Off); err == nil {
		t.Fatal("invalid VM accepted by Add")
	}
}

// hfUniform is the from-scratch definition of the (seed, vmID, t) variate:
// three splitmix64 rounds. The fleet hoists the first two per fleet; this
// reference does not.
func hfUniform(seed int64, vmID, t int) float64 {
	h := hfMix(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = hfMix(h ^ streamHashedFleet)
	h = hfMix(h ^ uint64(uint32(vmID)) ^ uint64(uint32(t))<<32)
	return float64(h>>11) / (1 << 53)
}

func TestHashedFleetPureFunctionContract(t *testing.T) {
	// After any Add / Remove / Step / AllOff sequence every tracked VM's
	// state equals the one recomputed from hfUniform alone, the dense column
	// and the published map agree entry for entry, and States() is the same
	// map for the fleet's whole life (bench/script.go's genClosed holds it
	// across Step calls).
	const seed = 91
	rng := rand.New(rand.NewSource(5))
	f, err := NewHashedFleet(hashedTestVMs(40), seed)
	if err != nil {
		t.Fatal(err)
	}
	live := f.States()
	want := make(map[int]markov.State)
	specs := make(map[int]cloud.VM)
	for _, vm := range hashedTestVMs(40) {
		want[vm.ID], specs[vm.ID] = markov.Off, vm
	}
	clock, nextID := 0, 1000
	check := func(op string) {
		t.Helper()
		if reflect.ValueOf(f.States()).Pointer() != reflect.ValueOf(live).Pointer() {
			t.Fatalf("after %s: States() returned a different map", op)
		}
		if len(live) != len(want) || len(f.col) != len(want) || f.Size() != len(want) {
			t.Fatalf("after %s: %d map entries, %d column entries, Size %d, want %d",
				op, len(live), len(f.col), f.Size(), len(want))
		}
		for i, vm := range f.vms {
			if f.col[i] != want[vm.ID] || live[vm.ID] != want[vm.ID] {
				t.Fatalf("after %s: VM %d column %v map %v, want %v", op, vm.ID, f.col[i], live[vm.ID], want[vm.ID])
			}
		}
	}
	for op := 0; op < 600; op++ {
		switch r := rng.Intn(10); {
		case r < 6:
			f.Step(nil)
			for id, st := range want {
				u := hfUniform(seed, id, clock)
				switch {
				case st == markov.On && u < specs[id].POff:
					want[id] = markov.Off
				case st == markov.Off && u < specs[id].POn:
					want[id] = markov.On
				}
			}
			clock++
			check("Step")
		case r < 8:
			vm := cloud.VM{ID: nextID, Rb: 1, Re: 1, POn: 0.2 + 0.6*rng.Float64(), POff: 0.2 + 0.6*rng.Float64()}
			nextID += 1 + rng.Intn(1_000_000)
			start := markov.State(rng.Intn(2))
			if err := f.Add(vm, start); err != nil {
				t.Fatal(err)
			}
			want[vm.ID], specs[vm.ID] = start, vm
			check("Add")
		case r < 9 && len(want) > 1:
			victim := f.vms[rng.Intn(len(f.vms))].ID
			if err := f.Remove(victim); err != nil {
				t.Fatal(err)
			}
			delete(want, victim)
			check("Remove")
		case op%97 == 0:
			f.AllOff()
			for id := range want {
				want[id] = markov.Off
			}
			clock = 0
			check("AllOff")
		}
	}
}
