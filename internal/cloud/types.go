// Package cloud defines the domain model shared by every consolidation
// strategy: VMs described by the paper's four-tuple (p_on, p_off, R_b, R_e),
// PMs described by capacity, and the VM-to-PM placement mapping X together
// with its capacity/reservation accounting.
package cloud

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/markov"
)

// VM is the paper's Eq. (1) four-tuple V_i = (p_on, p_off, R_b, R_e): a
// virtual machine whose demand alternates between the normal level R_b (OFF)
// and the peak level R_p = R_b + R_e (ON) under a two-state Markov chain.
type VM struct {
	ID   int     // unique identifier, ≥ 0
	POn  float64 // OFF→ON switch probability (spike frequency)
	POff float64 // ON→OFF switch probability (inverse spike duration)
	Rb   float64 // normal-workload resource requirement
	Re   float64 // spike size (extra requirement while ON)
}

// Rp returns the peak requirement R_p = R_b + R_e.
func (v VM) Rp() float64 { return v.Rb + v.Re }

// Demand returns the instantaneous requirement in the given workload state.
func (v VM) Demand(s markov.State) float64 {
	if s == markov.On {
		return v.Rp()
	}
	return v.Rb
}

// Chain returns the VM's ON-OFF workload chain.
func (v VM) Chain() (markov.OnOff, error) { return markov.NewOnOff(v.POn, v.POff) }

// Validate checks the four-tuple: probabilities in (0,1], finite
// non-negative demands, and a positive peak (a VM that never needs resources
// is a spec error, not a workload). NaN fails every ordered comparison, so
// finiteness is tested explicitly: one NaN demand would poison its PM's cached
// Σ R_b, every index score derived from it and the cluster sort's ordering.
func (v VM) Validate() error {
	if v.ID < 0 {
		return fmt.Errorf("cloud: VM id %d is negative", v.ID)
	}
	if _, err := markov.NewOnOff(v.POn, v.POff); err != nil {
		return fmt.Errorf("cloud: VM %d: %w", v.ID, err)
	}
	if !finite(v.Rb) || !finite(v.Re) || v.Rb < 0 || v.Re < 0 {
		return fmt.Errorf("cloud: VM %d has negative or non-finite demand (Rb=%v, Re=%v)", v.ID, v.Rb, v.Re)
	}
	if v.Rp() <= 0 {
		return fmt.Errorf("cloud: VM %d has zero peak demand", v.ID)
	}
	return nil
}

// PM is the paper's Eq. (2): a physical machine with a one-dimensional
// capacity.
type PM struct {
	ID       int
	Capacity float64
}

// Validate checks the PM spec.
func (p PM) Validate() error {
	if p.ID < 0 {
		return fmt.Errorf("cloud: PM id %d is negative", p.ID)
	}
	if !finite(p.Capacity) || p.Capacity <= 0 {
		return fmt.Errorf("cloud: PM %d has non-positive or non-finite capacity %v", p.ID, p.Capacity)
	}
	return nil
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ValidateVMs checks a fleet for individual validity and unique IDs. An
// invalid spec anywhere in the fleet is reported before any duplicate, and of
// several duplicated ids the smallest is named.
func ValidateVMs(vms []VM) error {
	for _, v := range vms {
		if err := v.Validate(); err != nil {
			return err
		}
	}
	if id, dup := duplicateID(len(vms), func(i int) int { return vms[i].ID }); dup {
		return fmt.Errorf("cloud: duplicate VM id %d", id)
	}
	return nil
}

// ValidatePMs checks a pool for individual validity and unique IDs, with the
// error precedence of ValidateVMs.
func ValidatePMs(pms []PM) error {
	for _, p := range pms {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if id, dup := duplicateID(len(pms), func(i int) int { return pms[i].ID }); dup {
		return fmt.Errorf("cloud: duplicate PM id %d", id)
	}
	return nil
}

// duplicateID reports the smallest of the n ids that occurs more than once.
// Strictly ascending ids — any generated or id-sorted fleet — are recognised
// in one pass without a copy; otherwise a copy is sorted and its neighbours
// compared.
func duplicateID(n int, id func(i int) int) (int, bool) {
	ascending := true
	for i := 1; i < n && ascending; i++ {
		ascending = id(i-1) < id(i)
	}
	if ascending {
		return 0, false
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = id(i)
	}
	slices.Sort(ids)
	for i := 1; i < n; i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}
