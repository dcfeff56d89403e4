package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/markov"
)

// DemandTrace is a sampled resource-demand trajectory of one VM: its ON-OFF
// state and the corresponding demand (R_b or R_p) at each interval — the data
// behind Fig. 1.
type DemandTrace struct {
	VM     cloud.VM
	States []markov.State
	Demand []float64
}

// Len returns the number of intervals in the trace.
func (t DemandTrace) Len() int { return len(t.States) }

// PeakFraction returns the fraction of intervals spent at peak demand.
func (t DemandTrace) PeakFraction() float64 { return markov.OnFraction(t.States) }

// GenerateDemandTrace samples a demand trajectory of the given length. The
// start state is drawn from the chain's stationary distribution so the trace
// begins in steady state.
func GenerateDemandTrace(vm cloud.VM, length int, rng *rand.Rand) (DemandTrace, error) {
	if err := vm.Validate(); err != nil {
		return DemandTrace{}, err
	}
	if length < 1 {
		return DemandTrace{}, fmt.Errorf("workload: trace length %d, want ≥ 1", length)
	}
	chain, err := vm.Chain()
	if err != nil {
		return DemandTrace{}, err
	}
	states := chain.Trace(chain.SampleStationary(rng), length, rng)
	demand := make([]float64, length)
	for i, s := range states {
		demand[i] = vm.Demand(s)
	}
	return DemandTrace{VM: vm, States: states, Demand: demand}, nil
}

// RequestTrace is a sampled request-count trajectory of one web-server VM
// (Fig. 8): the ON-OFF state, the active user population, and the number of
// requests generated in each interval.
type RequestTrace struct {
	Entry    TableIEntry
	Interval float64 // seconds per interval (σ)
	States   []markov.State
	Users    []int
	Requests []int
}

// Len returns the number of intervals in the trace.
func (t RequestTrace) Len() int { return len(t.States) }

// GenerateRequestTrace samples a request workload for a Table I entry: the
// VM's ON-OFF chain modulates the user population between NormalUsers and
// PeakUsers, and each interval's request count is drawn from the think-time
// renewal model. exact selects per-user renewal simulation (faithful but
// O(users·dt) per interval) over the Gaussian approximation.
func GenerateRequestTrace(entry TableIEntry, pOn, pOff float64, length int, interval float64, tt ThinkTime, exact bool, rng *rand.Rand) (RequestTrace, error) {
	if length < 1 {
		return RequestTrace{}, fmt.Errorf("workload: trace length %d, want ≥ 1", length)
	}
	if interval <= 0 {
		return RequestTrace{}, fmt.Errorf("workload: interval %v, want > 0", interval)
	}
	chain, err := markov.NewOnOff(pOn, pOff)
	if err != nil {
		return RequestTrace{}, err
	}
	if err := tt.Validate(); err != nil {
		return RequestTrace{}, err
	}
	states := chain.Trace(chain.SampleStationary(rng), length, rng)
	trace := RequestTrace{
		Entry:    entry,
		Interval: interval,
		States:   states,
		Users:    make([]int, length),
		Requests: make([]int, length),
	}
	for i, s := range states {
		users := entry.NormalUsers()
		if s == markov.On {
			users = entry.PeakUsers()
		}
		trace.Users[i] = users
		var count int
		if exact {
			count, err = RequestCountExact(users, interval, tt, rng)
		} else {
			count, err = RequestCount(users, interval, tt, rng)
		}
		if err != nil {
			return RequestTrace{}, err
		}
		trace.Requests[i] = count
	}
	return trace, nil
}

// FleetStates tracks the joint ON-OFF evolution of a whole fleet, advancing
// every VM's chain one interval at a time — the demand side of the
// datacenter simulation. Like HashedFleet it steps over a dense column
// (col[i] is vms[i]'s state) and writes the published map only on a
// transition.
type FleetStates struct {
	vms    []cloud.VM
	chains []markov.OnOff
	col    []markov.State
	states map[int]markov.State
}

// NewFleetStates initialises every VM in its stationary state.
func NewFleetStates(vms []cloud.VM, rng *rand.Rand) (*FleetStates, error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	f := &FleetStates{
		vms:    append([]cloud.VM(nil), vms...),
		chains: make([]markov.OnOff, len(vms)),
		col:    make([]markov.State, len(vms)),
		states: make(map[int]markov.State, len(vms)),
	}
	for i, vm := range f.vms {
		chain, err := vm.Chain()
		if err != nil {
			return nil, err
		}
		f.chains[i] = chain
		f.col[i] = chain.SampleStationary(rng)
		f.states[vm.ID] = f.col[i]
	}
	return f, nil
}

// AllOff forces every VM to OFF — the paper's t = 0 condition for Eq. (3),
// where the initial placement is checked against normal workload.
func (f *FleetStates) AllOff() {
	for i, vm := range f.vms {
		f.col[i] = markov.Off
		f.states[vm.ID] = markov.Off
	}
}

// Step advances every VM one interval, one RNG draw per VM in fleet order.
func (f *FleetStates) Step(rng *rand.Rand) {
	for i := range f.vms {
		if next := f.chains[i].Step(f.col[i], rng); next != f.col[i] {
			f.col[i] = next
			f.states[f.vms[i].ID] = next
		}
	}
}

// States returns the live state map (VM id → state). Callers must not
// mutate it; it is shared for efficiency in the simulation hot loop.
func (f *FleetStates) States() map[int]markov.State { return f.states }

// State returns one VM's current state.
func (f *FleetStates) State(vmID int) (markov.State, bool) {
	s, ok := f.states[vmID]
	return s, ok
}

// Add registers a new VM mid-run (an arrival in an open system), starting in
// the given state. It rejects duplicates and invalid specs.
func (f *FleetStates) Add(vm cloud.VM, start markov.State) error {
	if err := vm.Validate(); err != nil {
		return err
	}
	if _, exists := f.states[vm.ID]; exists {
		return fmt.Errorf("workload: VM %d already tracked", vm.ID)
	}
	chain, err := vm.Chain()
	if err != nil {
		return err
	}
	f.vms = append(f.vms, vm)
	f.chains = append(f.chains, chain)
	f.col = append(f.col, start)
	f.states[vm.ID] = start
	return nil
}

// Remove forgets a VM (a departure). It returns an error for unknown ids.
func (f *FleetStates) Remove(vmID int) error {
	if _, exists := f.states[vmID]; !exists {
		return fmt.Errorf("workload: VM %d not tracked", vmID)
	}
	delete(f.states, vmID)
	for i, vm := range f.vms {
		if vm.ID == vmID {
			f.vms = append(f.vms[:i], f.vms[i+1:]...)
			f.chains = append(f.chains[:i], f.chains[i+1:]...)
			f.col = append(f.col[:i], f.col[i+1:]...)
			break
		}
	}
	return nil
}

// Size returns the number of tracked VMs.
func (f *FleetStates) Size() int { return len(f.vms) }

// OnCount returns the number of VMs currently ON.
func (f *FleetStates) OnCount() int {
	n := 0
	for _, s := range f.col {
		if s == markov.On {
			n++
		}
	}
	return n
}
