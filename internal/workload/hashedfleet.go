package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/cloud"
	"repro/internal/markov"
)

// HashedFleet is a demand source whose ON-OFF transitions are pure functions
// of (seed, VM id, interval): each step draws its uniform variate from a
// splitmix64 hash instead of a shared sequential RNG. Two properties follow.
// First, a VM's trajectory is independent of every other VM's — adding,
// removing, or re-partitioning VMs never perturbs the rest of the fleet,
// which is what makes sharded stepping reproducible at any shard count.
// Second, any (vm, t) state can be recomputed in isolation, so fleets of
// millions of VMs need no per-VM RNG state. This is the same
// decision-is-a-pure-function discipline internal/faults uses for its
// deterministic fault schedules.
//
// The marginal per-step law matches markov.OnOff exactly: from OFF the VM
// turns ON with probability POn, from ON it turns OFF with probability POff.
//
// Step reads and writes the dense column col (col[i] is vms[i]'s state) and
// touches the published map only for the few VMs that flip, so an interval
// costs one sequential pass, not a map probe per VM. The map stays live and
// exact: States() returns the same map for the fleet's whole life.
type HashedFleet struct {
	vms      []cloud.VM
	col      []markov.State
	states   map[int]markov.State
	seedHash uint64 // hfSeedHash(seed), hoisted out of the per-VM loop
	t        int    // intervals stepped so far
}

// streamHashedFleet domain-separates this source's draws from other
// splitmix64 consumers sharing a seed.
const streamHashedFleet = 0xd6e8feb86659fd93

// hfMix is the splitmix64 finaliser — a bijective avalanche over 64 bits.
func hfMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hfSeedHash runs the two hash rounds of a (seed, vmID, t) draw that depend on
// the seed and the stream constant alone — once per fleet.
func hfSeedHash(seed int64) uint64 {
	return hfMix(hfMix(uint64(seed)^0x9e3779b97f4a7c15) ^ streamHashedFleet)
}

// hfDraw runs the third round, folding in the VM id and the interval, and
// maps the hash to a float64 in [0, 1) — once per VM per step.
func hfDraw(seedHash uint64, vmID, t int) float64 {
	h := hfMix(seedHash ^ uint64(uint32(vmID)) ^ uint64(uint32(t))<<32)
	return float64(h>>11) / (1 << 53)
}

// NewHashedFleet builds a hash-keyed fleet over the VMs, every VM starting
// OFF (the paper's t = 0 condition).
func NewHashedFleet(vms []cloud.VM, seed int64) (*HashedFleet, error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	f := &HashedFleet{
		vms:      append([]cloud.VM(nil), vms...),
		col:      make([]markov.State, len(vms)),
		states:   make(map[int]markov.State, len(vms)),
		seedHash: hfSeedHash(seed),
	}
	f.AllOff()
	return f, nil
}

// AllOff forces every VM to OFF and restarts the interval clock.
func (f *HashedFleet) AllOff() {
	for i, vm := range f.vms {
		f.col[i] = markov.Off
		f.states[vm.ID] = markov.Off
	}
	f.t = 0
}

// Step advances every VM one interval. The rng parameter of the DemandSource
// contract is ignored: every draw comes from the (seed, vmID, interval) hash.
func (f *HashedFleet) Step(_ *rand.Rand) {
	for i := range f.vms {
		vm := &f.vms[i]
		u := hfDraw(f.seedHash, vm.ID, f.t)
		switch f.col[i] {
		case markov.On:
			if u < vm.POff {
				f.col[i] = markov.Off
				f.states[vm.ID] = markov.Off
			}
		default:
			if u < vm.POn {
				f.col[i] = markov.On
				f.states[vm.ID] = markov.On
			}
		}
	}
	f.t++
}

// States returns the live state map (VM id → state). Callers must not
// mutate it; it is shared for efficiency in the simulation hot loop.
func (f *HashedFleet) States() map[int]markov.State { return f.states }

// Add registers a new VM mid-run, starting in the given state. Its future
// draws depend only on its id and the interval clock, so the insertion does
// not disturb any other VM's trajectory.
func (f *HashedFleet) Add(vm cloud.VM, start markov.State) error {
	if err := vm.Validate(); err != nil {
		return err
	}
	if _, exists := f.states[vm.ID]; exists {
		return fmt.Errorf("workload: VM %d already tracked", vm.ID)
	}
	f.vms = append(f.vms, vm)
	f.col = append(f.col, start)
	f.states[vm.ID] = start
	return nil
}

// Remove forgets a VM (a departure). It returns an error for unknown ids.
func (f *HashedFleet) Remove(vmID int) error {
	if _, exists := f.states[vmID]; !exists {
		return fmt.Errorf("workload: VM %d not tracked", vmID)
	}
	delete(f.states, vmID)
	for i, vm := range f.vms {
		if vm.ID == vmID {
			f.vms = append(f.vms[:i], f.vms[i+1:]...)
			f.col = append(f.col[:i], f.col[i+1:]...)
			break
		}
	}
	return nil
}

// Size returns the number of tracked VMs.
func (f *HashedFleet) Size() int { return len(f.vms) }
