package cloud

import (
	"fmt"
	"sort"

	"repro/internal/markov"
	"repro/internal/queuing"
)

// refPlacement is the map-based Placement this package shipped before the
// dense rewrite (four maps, aggregates re-walked through p.vms on every
// read), kept verbatim as the reference the differential test and
// FuzzPlacementOps compare the dense implementation against, bit for bit.
type refPlacement struct {
	pms     map[int]PM
	vms     map[int]VM
	vmToPM  map[int]int
	pmToVMs map[int][]int // VM ids per PM, kept sorted
}

func newRefPlacement(pms []PM) (*refPlacement, error) {
	if err := ValidatePMs(pms); err != nil {
		return nil, err
	}
	p := &refPlacement{
		pms:     make(map[int]PM, len(pms)),
		vms:     make(map[int]VM),
		vmToPM:  make(map[int]int),
		pmToVMs: make(map[int][]int),
	}
	for _, pm := range pms {
		p.pms[pm.ID] = pm
	}
	return p, nil
}

func (p *refPlacement) Assign(vm VM, pmID int) error {
	if err := vm.Validate(); err != nil {
		return err
	}
	if _, ok := p.pms[pmID]; !ok {
		return fmt.Errorf("cloud: unknown PM %d", pmID)
	}
	if existing, ok := p.vmToPM[vm.ID]; ok {
		return fmt.Errorf("cloud: VM %d already placed on PM %d", vm.ID, existing)
	}
	p.vms[vm.ID] = vm
	p.vmToPM[vm.ID] = pmID
	ids := append(p.pmToVMs[pmID], vm.ID)
	sort.Ints(ids)
	p.pmToVMs[pmID] = ids
	return nil
}

func (p *refPlacement) Remove(vmID int) (int, error) {
	pmID, ok := p.vmToPM[vmID]
	if !ok {
		return 0, fmt.Errorf("cloud: VM %d is not placed", vmID)
	}
	delete(p.vmToPM, vmID)
	delete(p.vms, vmID)
	ids := p.pmToVMs[pmID]
	for i, id := range ids {
		if id == vmID {
			p.pmToVMs[pmID] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(p.pmToVMs[pmID]) == 0 {
		delete(p.pmToVMs, pmID)
	}
	return pmID, nil
}

func (p *refPlacement) PMOf(vmID int) (int, bool) {
	pmID, ok := p.vmToPM[vmID]
	return pmID, ok
}

func (p *refPlacement) VM(vmID int) (VM, bool) {
	vm, ok := p.vms[vmID]
	return vm, ok
}

func (p *refPlacement) PM(pmID int) (PM, bool) {
	pm, ok := p.pms[pmID]
	return pm, ok
}

func (p *refPlacement) VMsOn(pmID int) []VM {
	ids := p.pmToVMs[pmID]
	out := make([]VM, 0, len(ids))
	for _, id := range ids {
		out = append(out, p.vms[id])
	}
	return out
}

func (p *refPlacement) CountOn(pmID int) int { return len(p.pmToVMs[pmID]) }

func (p *refPlacement) UsedPMs() []int {
	out := make([]int, 0, len(p.pmToVMs))
	for id := range p.pmToVMs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

func (p *refPlacement) NumUsedPMs() int { return len(p.pmToVMs) }

func (p *refPlacement) NumVMs() int { return len(p.vmToPM) }

func (p *refPlacement) PMs() []PM {
	out := make([]PM, 0, len(p.pms))
	for _, pm := range p.pms {
		out = append(out, pm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *refPlacement) VMs() []VM {
	out := make([]VM, 0, len(p.vms))
	for _, vm := range p.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *refPlacement) Clone() *refPlacement {
	c := &refPlacement{
		pms:     make(map[int]PM, len(p.pms)),
		vms:     make(map[int]VM, len(p.vms)),
		vmToPM:  make(map[int]int, len(p.vmToPM)),
		pmToVMs: make(map[int][]int, len(p.pmToVMs)),
	}
	for k, v := range p.pms {
		c.pms[k] = v
	}
	for k, v := range p.vms {
		c.vms[k] = v
	}
	for k, v := range p.vmToPM {
		c.vmToPM[k] = v
	}
	for k, v := range p.pmToVMs {
		ids := make([]int, len(v))
		copy(ids, v)
		c.pmToVMs[k] = ids
	}
	return c
}

func (p *refPlacement) Matrix() (x [][]bool, vmIDs, pmIDs []int) {
	vms := p.VMs()
	pms := p.PMs()
	pmIndex := make(map[int]int, len(pms))
	pmIDs = make([]int, len(pms))
	for j, pm := range pms {
		pmIndex[pm.ID] = j
		pmIDs[j] = pm.ID
	}
	vmIDs = make([]int, len(vms))
	x = make([][]bool, len(vms))
	for i, vm := range vms {
		vmIDs[i] = vm.ID
		x[i] = make([]bool, len(pms))
		if pmID, ok := p.vmToPM[vm.ID]; ok {
			x[i][pmIndex[pmID]] = true
		}
	}
	return x, vmIDs, pmIDs
}

func (p *refPlacement) SumRb(pmID int) float64 {
	sum := 0.0
	for _, id := range p.pmToVMs[pmID] {
		sum += p.vms[id].Rb
	}
	return sum
}

func (p *refPlacement) SumRp(pmID int) float64 {
	sum := 0.0
	for _, id := range p.pmToVMs[pmID] {
		sum += p.vms[id].Rp()
	}
	return sum
}

func (p *refPlacement) MaxRe(pmID int) float64 {
	max := 0.0
	for _, id := range p.pmToVMs[pmID] {
		if re := p.vms[id].Re; re > max {
			max = re
		}
	}
	return max
}

func (p *refPlacement) ReservationSize(pmID int, table *queuing.MappingTable) float64 {
	k := p.CountOn(pmID)
	if k == 0 {
		return 0
	}
	return p.MaxRe(pmID) * float64(table.Blocks(k))
}

func (p *refPlacement) ReservedFootprint(pmID int, table *queuing.MappingTable) float64 {
	return p.SumRb(pmID) + p.ReservationSize(pmID, table)
}

func (p *refPlacement) InstantLoad(pmID int, states map[int]markov.State) float64 {
	load := 0.0
	for _, id := range p.pmToVMs[pmID] {
		load += p.vms[id].Demand(states[id])
	}
	return load
}

func (p *refPlacement) IsViolated(pmID int, states map[int]markov.State) bool {
	pm, ok := p.pms[pmID]
	if !ok {
		return false
	}
	return p.InstantLoad(pmID, states) > pm.Capacity+1e-9
}
