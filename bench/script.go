package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/queuing"
	"repro/internal/workload"
)

// Fixed model parameters of every workload (ISSUE: ρ = 0.01, d = 16,
// PatternEqual VMs with p_on = 0.01 / p_off = 0.09, PM capacities U[80,100]).
const (
	rho     = 0.01
	maxVMs  = 16
	pOn     = 0.01
	pOff    = 0.09
	capMin  = 80.0
	capMax  = 100.0
	workers = 2 // = the pinned GOMAXPROCS
)

// strategy is the one admission strategy every layer is built with.
func strategy(tables *queuing.TableCache) core.QueuingFFD {
	return core.QueuingFFD{Rho: rho, MaxVMsPerPM: maxVMs, Tables: tables}
}

type opKind uint8

const (
	opArrive opKind = iota
	opDepart
	opArriveBatch
	opDepartBatch
)

// op is one pre-generated request. Single ops carry their VM inline (a
// departure uses only vm.ID); batch ops index script.batches.
type op struct {
	kind  opKind
	batch int32
	due   int64 // ns after round start; open loop only
	vm    cloud.VM
}

type batch struct {
	vms []cloud.VM // arrive batch
	ids []int      // depart batch
}

// oracle is what the sequential core.Online replay of a script returned:
// pm[i] is the PM id of arrive op i (-1 = refused by Eq. (17)), unplaced[b]
// the refused VM ids of arrive batch b in the order Online returned them, and
// final the placement after the last op.
type oracle struct {
	pm       []int32
	unplaced [][]int
	final    map[int]int
}

// script is the complete input of one workload, built in set-up from the seed.
// The program under test sees only ops replayed from it.
type script struct {
	pms     []cloud.PM
	ops     []op
	batches []batch
	warm    int   // ops[:warm] run untimed before the clock starts
	vmOps   int64 // VM-ops in ops[warm:] (a batch counts each VM)
	arrVMs  int64 // arriving VMs in ops[warm:]
	maxID   int   // largest VM id in the script
	digest  uint64
	want    *oracle // nil until a sequential replay has produced it
}

// vmOpsOf is how many VM-ops one op stands for: a batch counts each VM.
func (s *script) vmOpsOf(o *op) int64 {
	switch o.kind {
	case opArriveBatch:
		return int64(len(s.batches[o.batch].vms))
	case opDepartBatch:
		return int64(len(s.batches[o.batch].ids))
	}
	return 1
}

// seal computes the derived fields once ops/batches/warm are final.
func (s *script) seal() {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putVM := func(vm cloud.VM) {
		put(uint64(vm.ID))
		put(math.Float64bits(vm.Rb))
		put(math.Float64bits(vm.Re))
	}
	for _, pm := range s.pms {
		put(uint64(pm.ID))
		put(math.Float64bits(pm.Capacity))
	}
	s.vmOps, s.arrVMs, s.maxID = 0, 0, 0
	for i := range s.ops {
		o := &s.ops[i]
		put(uint64(o.kind))
		put(uint64(o.due))
		arriving := false
		switch o.kind {
		case opArrive:
			putVM(o.vm)
			arriving = true
			s.maxID = max(s.maxID, o.vm.ID)
		case opDepart:
			put(uint64(o.vm.ID))
		case opArriveBatch:
			for _, vm := range s.batches[o.batch].vms {
				putVM(vm)
				s.maxID = max(s.maxID, vm.ID)
			}
			arriving = true
		case opDepartBatch:
			for _, id := range s.batches[o.batch].ids {
				put(uint64(id))
			}
		}
		if i >= s.warm {
			n := s.vmOpsOf(o)
			s.vmOps += n
			if arriving {
				s.arrVMs += n
			}
		}
	}
	s.digest = h.Sum64()
}

func genFleet(rng *rand.Rand, nVMs, nPMs int) ([]cloud.VM, []cloud.PM, error) {
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, nVMs), rng)
	if err != nil {
		return nil, nil, err
	}
	pms, err := workload.GeneratePMs(nPMs, capMin, capMax, rng)
	if err != nil {
		return nil, nil, err
	}
	return vms, pms, nil
}

// freshVM draws one PatternEqual VM (R_b, R_e ∈ U[2,20]) with the given id.
func freshVM(rng *rand.Rand, id int) cloud.VM {
	return cloud.VM{ID: id, POn: pOn, POff: pOff, Rb: 2 + 18*rng.Float64(), Re: 2 + 18*rng.Float64()}
}

// genClosed walks a HashedFleet through its ON-OFF chain and records every
// OFF→ON transition of an unplaced VM as an arrival and every ON→OFF
// transition of a placed VM as a departure — the cmd/loadgen client loop,
// run ahead of time. The pool is sized so no arrival is refused, so "placed"
// is known at generation time.
func genClosed(seed int64, nVMs, nPMs, nOps int) (*script, []cloud.VM, error) {
	rng := rand.New(rand.NewSource(seed))
	vms, pms, err := genFleet(rng, nVMs, nPMs)
	if err != nil {
		return nil, nil, err
	}
	fleet, err := workload.NewHashedFleet(vms, seed)
	if err != nil {
		return nil, nil, err
	}
	s := &script{pms: pms, ops: make([]op, 0, nOps)}
	prev := make([]markov.State, nVMs)
	placed := make([]bool, nVMs)
	states := fleet.States()
	for len(s.ops) < nOps {
		for _, vm := range vms {
			prev[vm.ID] = states[vm.ID]
		}
		fleet.Step(nil)
		for _, vm := range vms {
			if len(s.ops) == nOps {
				break
			}
			was, now := prev[vm.ID], states[vm.ID]
			switch {
			case was == markov.Off && now == markov.On && !placed[vm.ID]:
				s.ops = append(s.ops, op{kind: opArrive, vm: vm})
				placed[vm.ID] = true
			case was == markov.On && now == markov.Off && placed[vm.ID]:
				s.ops = append(s.ops, op{kind: opDepart, vm: vm})
				placed[vm.ID] = false
			}
		}
	}
	s.warm = nOps / 20
	s.seal()
	return s, vms, nil
}

// genOpen builds the open-loop schedule: Gamma-gap arrivals (CV 3.5) at the
// given mean rate, each VM departing after an Exp(meanLife) lifetime floored
// at 2 ms. Gaps are rescaled so the last arrival is due at exactly
// nArr/rate — the offered rate is then the same for every seed — and
// departures due after that instant are dropped (those VMs stay live), so the
// schedule has a fixed length.
func genOpen(seed int64, nArr, nPMs int, rate, meanLife float64) (*script, []cloud.VM, error) {
	rng := rand.New(rand.NewSource(seed))
	pms, err := workload.GeneratePMs(nPMs, capMin, capMax, rng)
	if err != nil {
		return nil, nil, err
	}
	ap, err := workload.NewArrivalProcess(rate, 3.5, rng)
	if err != nil {
		return nil, nil, err
	}
	due := make([]float64, nArr)
	t := 0.0
	for i := range due {
		t += ap.NextGap()
		due[i] = t
	}
	end := float64(nArr) / rate
	scale := end / t
	endNs := int64(end * 1e9)
	s := &script{pms: pms, ops: make([]op, 0, 2*nArr)}
	vms := make([]cloud.VM, nArr)
	for i := range due {
		vm := freshVM(rng, i)
		vms[i] = vm
		at := int64(due[i] * scale * 1e9)
		life := math.Max(0.002, rng.ExpFloat64()*meanLife)
		s.ops = append(s.ops, op{kind: opArrive, vm: vm, due: at})
		if dep := at + int64(life*1e9); dep <= endNs {
			s.ops = append(s.ops, op{kind: opDepart, vm: vm, due: dep})
		}
	}
	// A VM's departure is due ≥ 2 ms after its arrival, so a stable sort by
	// due time keeps every VM's two ops in order.
	sort.SliceStable(s.ops, func(i, j int) bool { return s.ops[i].due < s.ops[j].due })
	s.warm = len(s.ops) / 20
	s.seal()
	return s, vms, nil
}

// batchSize draws 1+⌊Exp(64)⌋ capped at 256.
func batchSize(rng *rand.Rand) int {
	return min(256, 1+int(rng.ExpFloat64()*64))
}

// genBatch builds the saturated batch script by replaying it, as it is
// generated, through a sequential core.Online — which is also the oracle for
// every refusal. Phase 1 arrives batches until Eq. (17) first refuses a VM;
// from then on a batch departs whenever departed < 0.9 × arrived, so in steady
// state the pool stays full and one arriving VM in ten is refused. Phase 1
// plus 5 % of the ops are the warm-up.
func genBatch(seed int64, nPMs int, vmOps int64) (*script, []cloud.VM, error) {
	rng := rand.New(rand.NewSource(seed))
	pms, err := workload.GeneratePMs(nPMs, capMin, capMax, rng)
	if err != nil {
		return nil, nil, err
	}
	online, err := core.NewOnline(strategy(queuing.SharedTables()), pms, pOn, pOff)
	if err != nil {
		return nil, nil, err
	}
	s := &script{pms: pms, want: &oracle{}}
	var all []cloud.VM
	var live []int
	nextID := 0
	var arrived, departed, done int64
	saturated := false
	fill := 0
	for done < vmOps {
		n := batchSize(rng)
		if len(live) == 0 || !saturated || departed*10 >= arrived*9 {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = freshVM(rng, nextID)
				nextID++
			}
			all = append(all, vms...)
			unplaced, err := online.ArriveBatch(vms)
			if err != nil {
				return nil, nil, fmt.Errorf("oracle ArriveBatch: %w", err)
			}
			refused := make(map[int]bool, len(unplaced))
			ids := make([]int, len(unplaced))
			for i, vm := range unplaced {
				ids[i] = vm.ID
				refused[vm.ID] = true
			}
			for _, vm := range vms {
				if !refused[vm.ID] {
					live = append(live, vm.ID)
				}
			}
			s.ops = append(s.ops, op{kind: opArriveBatch, batch: int32(len(s.batches))})
			s.batches = append(s.batches, batch{vms: vms})
			s.want.unplaced = append(s.want.unplaced, ids)
			if saturated {
				arrived += int64(n)
				done += int64(n)
			} else if len(unplaced) > 0 {
				saturated = true
				fill = len(s.ops)
			}
			continue
		}
		n = min(n, len(live))
		ids := make([]int, n)
		for i := range ids {
			j := rng.Intn(len(live))
			ids[i] = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if err := online.Depart(ids[i]); err != nil {
				return nil, nil, fmt.Errorf("oracle Depart: %w", err)
			}
		}
		s.ops = append(s.ops, op{kind: opDepartBatch, batch: int32(len(s.batches))})
		s.batches = append(s.batches, batch{ids: ids})
		s.want.unplaced = append(s.want.unplaced, nil)
		departed += int64(n)
		done += int64(n)
	}
	s.warm = fill + (len(s.ops)-fill)/20
	s.want.final = finalOf(online.Placement())
	s.seal()
	return s, all, nil
}

// genArrivals turns a VM list into an arrival-only script (no warm-up): the
// consolidate-sim fleet in Algorithm-2 order, so the layer ladder can replay
// the offline packing one admission at a time.
func genArrivals(vms []cloud.VM, pms []cloud.PM) *script {
	s := &script{pms: pms, ops: make([]op, len(vms))}
	for i, vm := range vms {
		s.ops[i] = op{kind: opArrive, vm: vm}
	}
	s.seal()
	return s
}

func finalOf(p *cloud.Placement) map[int]int {
	out := make(map[int]int, p.NumVMs())
	for _, vm := range p.VMs() {
		pm, _ := p.PMOf(vm.ID)
		out[vm.ID] = pm
	}
	return out
}

// backend is the admission surface the replay loops drive. *placesvc.Service
// and *shardsvc.Federation satisfy it directly; onlineBackend and noop adapt
// the two rungs below them.
type backend interface {
	Arrive(vm cloud.VM) (int, error)
	Depart(vmID int) error
	ArriveBatch(vms []cloud.VM) ([]cloud.VM, error)
	DepartBatch(vmIDs []int) ([]int, error)
	Close() error
}

type onlineBackend struct{ *core.Online }

func (o onlineBackend) DepartBatch(ids []int) ([]int, error) {
	for _, id := range ids {
		if err := o.Depart(id); err != nil {
			return nil, err
		}
	}
	return nil, nil
}
func (onlineBackend) Close() error { return nil }

// noop answers every request at once: replaying a script against it costs
// exactly the driver's own loop.
type noop struct{}

func (noop) Arrive(cloud.VM) (int, error)               { return 0, nil }
func (noop) Depart(int) error                           { return nil }
func (noop) ArriveBatch([]cloud.VM) ([]cloud.VM, error) { return nil, nil }
func (noop) DepartBatch([]int) ([]int, error)           { return nil, nil }
func (noop) Close() error                               { return nil }

// errGate marks a failed correctness gate: the run exits non-zero and prints
// no metrics.
var errGate = errors.New("correctness gate failed")

func gatef(format string, a ...any) error {
	return fmt.Errorf("%w: %s", errGate, fmt.Sprintf(format, a...))
}
