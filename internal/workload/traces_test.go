package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/markov"
)

func traceVM() cloud.VM {
	return cloud.VM{ID: 0, POn: 0.01, POff: 0.09, Rb: 10, Re: 8}
}

func TestGenerateDemandTraceShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr, err := GenerateDemandTrace(traceVM(), 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 || len(tr.Demand) != 500 {
		t.Fatalf("trace length %d/%d", tr.Len(), len(tr.Demand))
	}
	for i, s := range tr.States {
		want := 10.0
		if s == markov.On {
			want = 18
		}
		if tr.Demand[i] != want {
			t.Fatalf("interval %d: demand %v for state %v", i, tr.Demand[i], s)
		}
	}
}

func TestGenerateDemandTraceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateDemandTrace(traceVM(), 0, rng); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := GenerateDemandTrace(cloud.VM{ID: 0, POn: 0, POff: 0.1, Rb: 1, Re: 1}, 10, rng); err == nil {
		t.Error("invalid VM accepted")
	}
}

func TestDemandTracePeakFraction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, err := GenerateDemandTrace(traceVM(), 300000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr.PeakFraction()-0.1) > 0.01 {
		t.Errorf("peak fraction %v, want ≈ 0.1", tr.PeakFraction())
	}
}

func TestGenerateRequestTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entry := TableIEntry{PatternEqual, ClassSmall, ClassSmall}
	tr, err := GenerateRequestTrace(entry, 0.01, 0.09, 200, 30, PaperThinkTime(), false, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 200 {
		t.Fatalf("trace length %d", tr.Len())
	}
	rate := PaperThinkTime().RequestRate()
	for i := range tr.States {
		wantUsers := 400
		if tr.States[i] == markov.On {
			wantUsers = 800
		}
		if tr.Users[i] != wantUsers {
			t.Fatalf("interval %d: users %d for state %v", i, tr.Users[i], tr.States[i])
		}
		// Requests should be near users·rate·30 (±50% is generous noise).
		want := float64(wantUsers) * rate * 30
		if math.Abs(float64(tr.Requests[i])-want) > want*0.5 {
			t.Fatalf("interval %d: requests %d far from %v", i, tr.Requests[i], want)
		}
	}
}

func TestGenerateRequestTraceExactAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	entry := TableIEntry{PatternEqual, ClassSmall, ClassSmall}
	exact, err := GenerateRequestTrace(entry, 0.01, 0.09, 30, 10, PaperThinkTime(), true, rng)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := GenerateRequestTrace(entry, 0.01, 0.09, 30, 10, PaperThinkTime(), false, rng)
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	me, ma := meanOf(exact.Requests), meanOf(approx.Requests)
	if math.Abs(me-ma)/me > 0.25 {
		t.Errorf("exact mean %v vs approx mean %v", me, ma)
	}
}

func TestGenerateRequestTraceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	entry := TableIEntry{PatternEqual, ClassSmall, ClassSmall}
	if _, err := GenerateRequestTrace(entry, 0.01, 0.09, 0, 30, PaperThinkTime(), false, rng); err == nil {
		t.Error("zero length accepted")
	}
	if _, err := GenerateRequestTrace(entry, 0.01, 0.09, 10, 0, PaperThinkTime(), false, rng); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := GenerateRequestTrace(entry, 0, 0.09, 10, 30, PaperThinkTime(), false, rng); err == nil {
		t.Error("invalid chain accepted")
	}
	if _, err := GenerateRequestTrace(entry, 0.01, 0.09, 10, 30, ThinkTime{Mean: 0}, false, rng); err == nil {
		t.Error("invalid think time accepted")
	}
}

func TestFleetStates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	vms := []cloud.VM{traceVM(), {ID: 1, POn: 0.01, POff: 0.09, Rb: 5, Re: 3}}
	fs, err := NewFleetStates(vms, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.States()) != 2 {
		t.Fatalf("states map has %d entries", len(fs.States()))
	}
	fs.AllOff()
	if fs.OnCount() != 0 {
		t.Error("AllOff left VMs ON")
	}
	if s, ok := fs.State(0); !ok || s != markov.Off {
		t.Error("State(0) should be OFF after AllOff")
	}
	if _, ok := fs.State(99); ok {
		t.Error("unknown VM id should not resolve")
	}
	// Advance many steps; states must stay valid and ON fraction sane.
	onSteps, total := 0, 0
	for i := 0; i < 50000; i++ {
		fs.Step(rng)
		onSteps += fs.OnCount()
		total += 2
	}
	frac := float64(onSteps) / float64(total)
	if math.Abs(frac-0.1) > 0.02 {
		t.Errorf("fleet ON fraction %v, want ≈ 0.1", frac)
	}
}

func TestNewFleetStatesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := NewFleetStates([]cloud.VM{{ID: 0, POn: 0, POff: 0.1, Rb: 1, Re: 1}}, rng); err == nil {
		t.Error("invalid fleet accepted")
	}
	dup := []cloud.VM{traceVM(), traceVM()}
	if _, err := NewFleetStates(dup, rng); err == nil {
		t.Error("duplicate ids accepted")
	}
}

func TestFleetStatesAddRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	fs, err := NewFleetStates([]cloud.VM{traceVM()}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Size() != 1 {
		t.Fatalf("Size = %d", fs.Size())
	}
	newVM := cloud.VM{ID: 5, POn: 0.01, POff: 0.09, Rb: 3, Re: 2}
	if err := fs.Add(newVM, markov.Off); err != nil {
		t.Fatal(err)
	}
	if fs.Size() != 2 {
		t.Errorf("Size after add = %d", fs.Size())
	}
	if s, ok := fs.State(5); !ok || s != markov.Off {
		t.Error("added VM not tracked in OFF")
	}
	// Duplicates and invalid specs rejected.
	if err := fs.Add(newVM, markov.Off); err == nil {
		t.Error("duplicate add accepted")
	}
	if err := fs.Add(cloud.VM{ID: 9, POn: 0, POff: 0.1, Rb: 1, Re: 1}, markov.Off); err == nil {
		t.Error("invalid VM accepted")
	}
	// Stepping after add covers both VMs.
	fs.Step(rng)
	if len(fs.States()) != 2 {
		t.Error("states map wrong size after step")
	}
	if err := fs.Remove(5); err != nil {
		t.Fatal(err)
	}
	if fs.Size() != 1 {
		t.Errorf("Size after remove = %d", fs.Size())
	}
	if _, ok := fs.State(5); ok {
		t.Error("removed VM still tracked")
	}
	if err := fs.Remove(5); err == nil {
		t.Error("double remove accepted")
	}
	// Remaining VM still steps fine.
	fs.Step(rng)
	if _, ok := fs.State(0); !ok {
		t.Error("remaining VM lost after remove+step")
	}
}

func TestFleetStatesColumnAndMapInStep(t *testing.T) {
	// The dense column is an implementation detail: through Add / Remove /
	// Step / AllOff the published map must equal a fleet stepped the old way
	// — states[id] = chain.Step(states[id], rng), one draw per VM in fleet
	// order — off an identically seeded stream, and stay the same map.
	vms := make([]cloud.VM, 30)
	for i := range vms {
		vms[i] = cloud.VM{ID: 3 * i, POn: 0.3, POff: 0.4, Rb: 1, Re: 1}
	}
	rng, refRng := rand.New(rand.NewSource(21)), rand.New(rand.NewSource(21))
	fs, err := NewFleetStates(vms, rng)
	if err != nil {
		t.Fatal(err)
	}
	live := fs.States()
	order := append([]cloud.VM(nil), vms...)
	want := make(map[int]markov.State)
	for _, vm := range order {
		chain, _ := vm.Chain()
		want[vm.ID] = chain.SampleStationary(refRng)
	}
	ops := rand.New(rand.NewSource(22))
	for op := 0; op < 400; op++ {
		switch r := ops.Intn(10); {
		case r < 6:
			fs.Step(rng)
			for _, vm := range order {
				chain, _ := vm.Chain()
				want[vm.ID] = chain.Step(want[vm.ID], refRng)
			}
		case r < 8:
			vm := cloud.VM{ID: 1000 + op, POn: 0.5, POff: 0.5, Rb: 1, Re: 1}
			start := markov.State(ops.Intn(2))
			if err := fs.Add(vm, start); err != nil {
				t.Fatal(err)
			}
			order = append(order, vm)
			want[vm.ID] = start
		case r < 9 && len(order) > 1:
			i := ops.Intn(len(order))
			if err := fs.Remove(order[i].ID); err != nil {
				t.Fatal(err)
			}
			delete(want, order[i].ID)
			order = append(order[:i], order[i+1:]...)
		case op%53 == 0:
			fs.AllOff()
			for id := range want {
				want[id] = markov.Off
			}
		}
		if !reflect.DeepEqual(live, want) {
			t.Fatalf("op %d: published map diverged from the map-stepped reference", op)
		}
		on := 0
		for i, vm := range fs.vms {
			if fs.col[i] != live[vm.ID] {
				t.Fatalf("op %d: VM %d column %v, map %v", op, vm.ID, fs.col[i], live[vm.ID])
			}
			on += int(fs.col[i])
		}
		if fs.OnCount() != on || len(fs.col) != len(want) {
			t.Fatalf("op %d: OnCount %d / %d column entries, want %d / %d", op, fs.OnCount(), len(fs.col), on, len(want))
		}
	}
	if reflect.ValueOf(fs.States()).Pointer() != reflect.ValueOf(live).Pointer() {
		t.Fatal("States() returned a different map")
	}
}
