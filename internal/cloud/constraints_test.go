package cloud

import (
	"math"
	"strings"
	"testing"

	"repro/internal/markov"
	"repro/internal/queuing"
)

func TestCheckPeak(t *testing.T) {
	p, _ := NewPlacement(pool(2, 100))
	_ = p.Assign(VM{ID: 1, POn: 0.01, POff: 0.09, Rb: 60, Re: 30}, 0) // Rp = 90, fits
	if v := CheckPeak(p); v != nil {
		t.Errorf("unexpected peak violations: %v", v)
	}
	_ = p.Assign(VM{ID: 2, POn: 0.01, POff: 0.09, Rb: 10, Re: 10}, 0) // Rp sum = 110
	v := CheckPeak(p)
	if len(v) != 1 || v[0].PMID != 0 {
		t.Fatalf("expected one violation on PM 0, got %v", v)
	}
	if !strings.Contains(v[0].Error(), "peak") {
		t.Errorf("violation message missing detail: %s", v[0].Error())
	}
	if v[0].Footprint != 110 || v[0].Capacity != 100 {
		t.Errorf("violation accounting wrong: %+v", v[0])
	}
}

func TestCheckNormal(t *testing.T) {
	p, _ := NewPlacement(pool(2, 100))
	_ = p.Assign(VM{ID: 1, POn: 0.01, POff: 0.09, Rb: 90, Re: 50}, 0) // peak 140 but Rb fits
	if v := CheckNormal(p); v != nil {
		t.Errorf("unexpected normal violations: %v", v)
	}
	_ = p.Assign(VM{ID: 2, POn: 0.01, POff: 0.09, Rb: 20, Re: 1}, 0)
	if v := CheckNormal(p); len(v) != 1 {
		t.Errorf("expected one normal violation, got %v", v)
	}
}

func TestCheckReserved(t *testing.T) {
	table, err := queuing.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPlacement(pool(2, 100))
	// 4 VMs, Rb=20 each = 80; blocks = mapping(4), blockSize = 5.
	for id := 1; id <= 4; id++ {
		_ = p.Assign(VM{ID: id, POn: 0.01, POff: 0.09, Rb: 20, Re: 5}, 0)
	}
	footprint := p.ReservedFootprint(0, table)
	if footprint <= 80 {
		t.Fatalf("expected reservation to add footprint, got %v", footprint)
	}
	if footprint <= 100 {
		if v := CheckReserved(p, table); v != nil {
			t.Errorf("unexpected reserved violations: %v", v)
		}
	}
	// Push it over capacity.
	_ = p.Assign(VM{ID: 5, POn: 0.01, POff: 0.09, Rb: 20, Re: 5}, 0)
	if p.ReservedFootprint(0, table) > 100 {
		if v := CheckReserved(p, table); len(v) != 1 {
			t.Errorf("expected one reserved violation, got %v", v)
		}
	}
}

// CheckReserved's tolerance absorbs float round-off, not capacity: a footprint
// a millionth of a unit over C is a violation, one a millionth under is not.
// Both PMs host two VMs (block size = the larger R_e) whose R_b fills the
// rest of the capacity to within ±1e-6.
func TestCheckReservedTolerance(t *testing.T) {
	table, err := queuing.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, re = 100.0, 8.0
	rb := (capacity - re*float64(table.Blocks(2))) / 2
	p, _ := NewPlacement(pool(2, capacity))
	for pm, delta := range []float64{1e-6, -1e-6} {
		for i := 0; i < 2; i++ {
			vm := VM{ID: 10*pm + i, POn: 0.01, POff: 0.09, Rb: rb + delta/2, Re: re - float64(i)}
			if err := p.Assign(vm, pm); err != nil {
				t.Fatal(err)
			}
		}
	}
	for pm, want := range []float64{capacity + 1e-6, capacity - 1e-6} {
		if got := p.ReservedFootprint(pm, table); math.Abs(got-want) > 1e-9 {
			t.Fatalf("PM %d footprint %v, want %v", pm, got, want)
		}
	}
	v := CheckReserved(p, table)
	if len(v) != 1 || v[0].PMID != 0 {
		t.Fatalf("CheckReserved = %v, want exactly PM 0 (footprint C + 1e-6) flagged", v)
	}
}

func TestCheckFixedReserve(t *testing.T) {
	p, _ := NewPlacement(pool(1, 100))
	_ = p.Assign(VM{ID: 1, POn: 0.01, POff: 0.09, Rb: 65, Re: 5}, 0)
	if v := CheckFixedReserve(p, 0.3); v != nil {
		t.Errorf("65 ≤ 70 should pass: %v", v)
	}
	_ = p.Assign(VM{ID: 2, POn: 0.01, POff: 0.09, Rb: 10, Re: 5}, 0)
	v := CheckFixedReserve(p, 0.3)
	if len(v) != 1 {
		t.Fatalf("75 > 70 should violate, got %v", v)
	}
	if !strings.Contains(v[0].Detail, "0.30") {
		t.Errorf("violation detail should carry delta: %s", v[0].Detail)
	}
}

func TestInstantLoadAndIsViolated(t *testing.T) {
	p, _ := NewPlacement(pool(1, 100))
	_ = p.Assign(VM{ID: 1, POn: 0.01, POff: 0.09, Rb: 50, Re: 40}, 0)
	_ = p.Assign(VM{ID: 2, POn: 0.01, POff: 0.09, Rb: 30, Re: 40}, 0)
	states := map[int]markov.State{1: markov.Off, 2: markov.Off}
	if got := p.InstantLoad(0, states); got != 80 {
		t.Errorf("InstantLoad = %v, want 80", got)
	}
	if p.IsViolated(0, states) {
		t.Error("80 ≤ 100 should not violate")
	}
	states[1] = markov.On // 90 + 30 = 120
	if got := p.InstantLoad(0, states); got != 120 {
		t.Errorf("InstantLoad = %v, want 120", got)
	}
	if !p.IsViolated(0, states) {
		t.Error("120 > 100 should violate")
	}
	if p.IsViolated(99, states) {
		t.Error("unknown PM should not report violation")
	}
}

func TestCheckersIgnoreEmptyPMs(t *testing.T) {
	p, _ := NewPlacement(pool(3, 10))
	if CheckPeak(p) != nil || CheckNormal(p) != nil || CheckFixedReserve(p, 0.5) != nil {
		t.Error("empty placement should have no violations")
	}
}
