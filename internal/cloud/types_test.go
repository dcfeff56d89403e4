package cloud

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/markov"
)

func validVM(id int) VM {
	return VM{ID: id, POn: 0.01, POff: 0.09, Rb: 10, Re: 5}
}

func TestVMRp(t *testing.T) {
	v := validVM(0)
	if v.Rp() != 15 {
		t.Errorf("Rp = %v, want 15", v.Rp())
	}
}

func TestVMDemand(t *testing.T) {
	v := validVM(0)
	if v.Demand(markov.Off) != 10 {
		t.Errorf("OFF demand = %v, want 10", v.Demand(markov.Off))
	}
	if v.Demand(markov.On) != 15 {
		t.Errorf("ON demand = %v, want 15", v.Demand(markov.On))
	}
}

func TestVMChain(t *testing.T) {
	v := validVM(0)
	c, err := v.Chain()
	if err != nil {
		t.Fatal(err)
	}
	if c.POn != 0.01 || c.POff != 0.09 {
		t.Error("Chain returned wrong parameters")
	}
}

func TestVMValidate(t *testing.T) {
	if err := validVM(0).Validate(); err != nil {
		t.Errorf("valid VM rejected: %v", err)
	}
	cases := []struct {
		name string
		vm   VM
	}{
		{"negative id", VM{ID: -1, POn: 0.1, POff: 0.1, Rb: 1, Re: 1}},
		{"zero p_on", VM{ID: 0, POn: 0, POff: 0.1, Rb: 1, Re: 1}},
		{"p_off > 1", VM{ID: 0, POn: 0.1, POff: 1.5, Rb: 1, Re: 1}},
		{"negative Rb", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: -1, Re: 1}},
		{"negative Re", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 1, Re: -1}},
		{"zero peak", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 0, Re: 0}},
		{"NaN Rb", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: math.NaN(), Re: 1}},
		{"NaN Re", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 1, Re: math.NaN()}},
		{"+Inf Rb", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: math.Inf(1), Re: 1}},
		{"+Inf Re", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 1, Re: math.Inf(1)}},
		{"-Inf Re", VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 1, Re: math.Inf(-1)}},
	}
	for _, c := range cases {
		if err := c.vm.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid VM", c.name)
		}
	}
	// Zero spike size is legal: a steady VM.
	steady := VM{ID: 0, POn: 0.1, POff: 0.1, Rb: 5, Re: 0}
	if err := steady.Validate(); err != nil {
		t.Errorf("steady VM rejected: %v", err)
	}
}

func TestPMValidate(t *testing.T) {
	if err := (PM{ID: 0, Capacity: 100}).Validate(); err != nil {
		t.Errorf("valid PM rejected: %v", err)
	}
	cases := []struct {
		name string
		pm   PM
	}{
		{"negative id", PM{ID: -1, Capacity: 100}},
		{"zero capacity", PM{ID: 0, Capacity: 0}},
		{"negative capacity", PM{ID: 0, Capacity: -5}},
		{"NaN capacity", PM{ID: 0, Capacity: math.NaN()}},
		{"+Inf capacity", PM{ID: 0, Capacity: math.Inf(1)}},
		{"-Inf capacity", PM{ID: 0, Capacity: math.Inf(-1)}},
	}
	for _, c := range cases {
		if err := c.pm.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid PM", c.name)
		}
	}
}

func TestValidateVMsDuplicates(t *testing.T) {
	if err := ValidateVMs([]VM{validVM(1), validVM(1)}); err == nil {
		t.Error("duplicate VM ids accepted")
	}
	if err := ValidateVMs([]VM{validVM(1), validVM(2)}); err != nil {
		t.Errorf("unique ids rejected: %v", err)
	}
	if err := ValidateVMs([]VM{{ID: 0}}); err == nil {
		t.Error("invalid VM accepted")
	}
}

func TestValidatePMsDuplicates(t *testing.T) {
	if err := ValidatePMs([]PM{{ID: 1, Capacity: 10}, {ID: 1, Capacity: 20}}); err == nil {
		t.Error("duplicate PM ids accepted")
	}
	if err := ValidatePMs([]PM{{ID: 1, Capacity: 10}, {ID: 2, Capacity: 20}}); err != nil {
		t.Errorf("unique ids rejected: %v", err)
	}
	if err := ValidatePMs([]PM{{ID: 1, Capacity: -3}}); err == nil {
		t.Error("invalid PM accepted")
	}
}

// The duplicate check sorts ids instead of keeping a set: its verdict and the
// error's format must not depend on where the duplicates sit or on the input
// order, an invalid spec anywhere wins over any duplicate, and the smallest
// duplicated id is the one named. Each case runs through both validators.
func TestValidateDuplicateIDs(t *testing.T) {
	cases := []struct {
		name    string
		ids     []int
		invalid int // index whose spec is made invalid, -1 for none
		want    string
	}{
		{"empty fleet", nil, -1, ""},
		{"single element", []int{4}, -1, ""},
		{"none, sorted", []int{1, 2, 5, 9}, -1, ""},
		{"none, unsorted", []int{9, 2, 5, 1}, -1, ""},
		{"duplicate first, sorted", []int{1, 1, 2, 5}, -1, "1"},
		{"duplicate last, sorted", []int{1, 2, 5, 5}, -1, "5"},
		{"duplicate first and last, unsorted", []int{7, 2, 5, 7}, -1, "7"},
		{"several, smallest named", []int{8, 3, 8, 6, 3, 6}, -1, "3"},
		{"triple", []int{2, 2, 2}, -1, "2"},
		{"invalid after the duplicate", []int{1, 1, 2}, 2, "invalid"},
		{"invalid alone", []int{3}, 0, "invalid"},
	}
	for _, c := range cases {
		vms := make([]VM, len(c.ids))
		pms := make([]PM, len(c.ids))
		for i, id := range c.ids {
			vms[i], pms[i] = validVM(id), PM{ID: id, Capacity: 10}
			if i == c.invalid {
				vms[i].Rb, pms[i].Capacity = -1, -1
			}
		}
		for kind, err := range map[string]error{"VM": ValidateVMs(vms), "PM": ValidatePMs(pms)} {
			switch {
			case c.want == "":
				if err != nil {
					t.Errorf("%s, %ss: unique ids rejected: %v", c.name, kind, err)
				}
			case c.want == "invalid":
				if err == nil || strings.Contains(err.Error(), "duplicate") {
					t.Errorf("%s, %ss: got %v, want the invalid spec's error", c.name, kind, err)
				}
			default:
				if want := fmt.Sprintf("cloud: duplicate %s id %s", kind, c.want); err == nil || err.Error() != want {
					t.Errorf("%s, %ss: got %v, want %q", c.name, kind, err, want)
				}
			}
		}
	}
}
