package cloud

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"repro/internal/queuing"
)

// Placement is the binary mapping X = [x_ij]: which PM hosts each VM, with
// the per-PM demand aggregates every admission constraint needs.
//
// Storage is dense and position-keyed. The PM pool is fixed at construction,
// so a PM is addressed by its position in the id-sorted pool; each position
// holds its hosted VMs (ascending id) and the cached aggregates Σ R_b and
// max R_e, which makes the Eq. (17) test a handful of slice reads. VM ids are
// unbounded (arrivals keep minting new ones), so that side is one map from VM
// id to PM position.
//
// The cached aggregates are recomputed over the id-sorted host list on every
// Assign and Remove — never updated incrementally — so their value depends
// only on the host set, not on the order VMs came and went: a clone, a
// snapshot replay and the live placement agree bit for bit.
type Placement struct {
	pms   []PM        // pool, ascending by id; immutable, shared by clones
	index *IDIndex    // PM id → position in pms; immutable, shared by clones
	hosts [][]VM      // per position: hosted VMs, ascending by id
	sumRb []float64   // per position: Σ R_b folded over hosts[i] in that order
	maxRe []float64   // per position: max R_e over hosts[i], 0 when empty
	used  int         // positions hosting at least one VM
	vmAt  map[int]int // placed VM id → position of its PM
}

// NewPlacement creates an empty placement over the given PM pool.
func NewPlacement(pms []PM) (*Placement, error) {
	if err := ValidatePMs(pms); err != nil {
		return nil, err
	}
	sorted := make([]PM, len(pms))
	copy(sorted, pms)
	slices.SortFunc(sorted, func(a, b PM) int { return cmp.Compare(a.ID, b.ID) })
	ids := make([]int, len(sorted))
	for i, pm := range sorted {
		ids[i] = pm.ID
	}
	return &Placement{
		pms:   sorted,
		index: NewIDIndex(ids),
		hosts: make([][]VM, len(sorted)),
		sumRb: make([]float64, len(sorted)),
		maxRe: make([]float64, len(sorted)),
		vmAt:  make(map[int]int),
	}, nil
}

// NumPMs returns the size of the PM pool.
func (p *Placement) NumPMs() int { return len(p.pms) }

// PMAt returns the PM at a position of the id-sorted pool, 0 ≤ pos < NumPMs.
// Positions are stable for the placement's life and shared by its clones, so
// callers indexing per-PM state (the first-fit tree) key it by position.
func (p *Placement) PMAt(pos int) PM { return p.pms[pos] }

// PosOf returns the position of a PM id in the id-sorted pool.
func (p *Placement) PosOf(pmID int) (int, bool) { return p.index.Pos(pmID) }

// searchHosts locates a VM id in an id-sorted host list: its index when
// present, the insertion index otherwise.
func searchHosts(h []VM, vmID int) (int, bool) {
	return slices.BinarySearchFunc(h, vmID, func(vm VM, id int) int { return cmp.Compare(vm.ID, id) })
}

// refold recomputes a position's cached aggregates from its host list.
func (p *Placement) refold(pos int) {
	sum, max := 0.0, 0.0
	h := p.hosts[pos]
	for i := range h {
		sum += h[i].Rb
		if h[i].Re > max {
			max = h[i].Re
		}
	}
	p.sumRb[pos], p.maxRe[pos] = sum, max
}

// Assign places a VM on a PM. It rejects unknown PMs, invalid VMs, and VMs
// that are already placed — moving a VM is modelled explicitly as
// Remove + Assign (a live migration), never an implicit overwrite.
func (p *Placement) Assign(vm VM, pmID int) error {
	if err := vm.Validate(); err != nil {
		return err
	}
	pos, ok := p.index.Pos(pmID)
	if !ok {
		return fmt.Errorf("cloud: unknown PM %d", pmID)
	}
	if at, ok := p.vmAt[vm.ID]; ok {
		return fmt.Errorf("cloud: VM %d already placed on PM %d", vm.ID, p.pms[at].ID)
	}
	p.vmAt[vm.ID] = pos
	k, _ := searchHosts(p.hosts[pos], vm.ID)
	p.hosts[pos] = slices.Insert(p.hosts[pos], k, vm)
	if len(p.hosts[pos]) == 1 {
		p.used++
	}
	p.refold(pos)
	return nil
}

// Remove detaches a VM from its PM (a departure or the first half of a
// migration). It returns the PM the VM was on.
func (p *Placement) Remove(vmID int) (int, error) {
	pos, ok := p.vmAt[vmID]
	if !ok {
		return 0, fmt.Errorf("cloud: VM %d is not placed", vmID)
	}
	delete(p.vmAt, vmID)
	k, _ := searchHosts(p.hosts[pos], vmID)
	p.hosts[pos] = slices.Delete(p.hosts[pos], k, k+1)
	if len(p.hosts[pos]) == 0 {
		p.used--
	}
	p.refold(pos)
	return p.pms[pos].ID, nil
}

// PMOf returns the PM hosting the VM.
func (p *Placement) PMOf(vmID int) (int, bool) {
	pos, ok := p.vmAt[vmID]
	if !ok {
		return 0, false
	}
	return p.pms[pos].ID, true
}

// VM returns the spec of a placed VM.
func (p *Placement) VM(vmID int) (VM, bool) {
	pos, ok := p.vmAt[vmID]
	if !ok {
		return VM{}, false
	}
	k, _ := searchHosts(p.hosts[pos], vmID)
	return p.hosts[pos][k], true
}

// PM returns the spec of a PM in the pool.
func (p *Placement) PM(pmID int) (PM, bool) {
	pos, ok := p.index.Pos(pmID)
	if !ok {
		return PM{}, false
	}
	return p.pms[pos], true
}

// hosted returns a PM's live host list (nil for an unknown PM); callers must
// not mutate or retain it.
func (p *Placement) hosted(pmID int) []VM {
	pos, ok := p.index.Pos(pmID)
	if !ok {
		return nil
	}
	return p.hosts[pos]
}

// VMsOn returns the VMs hosted by a PM, ordered by id. The slice is freshly
// allocated; callers may mutate it.
func (p *Placement) VMsOn(pmID int) []VM {
	h := p.hosted(pmID)
	out := make([]VM, len(h))
	copy(out, h)
	return out
}

// CountOn returns the number of VMs hosted by a PM (|T_j|).
func (p *Placement) CountOn(pmID int) int { return len(p.hosted(pmID)) }

// UsedPMs returns the ids of PMs hosting at least one VM, sorted.
func (p *Placement) UsedPMs() []int {
	out := make([]int, 0, p.used)
	for pos := 0; len(out) < p.used; pos++ {
		if len(p.hosts[pos]) > 0 {
			out = append(out, p.pms[pos].ID)
		}
	}
	return out
}

// NumUsedPMs returns the objective value of Eq. (6): the number of PMs that
// host at least one VM.
func (p *Placement) NumUsedPMs() int { return p.used }

// NumVMs returns the number of placed VMs.
func (p *Placement) NumVMs() int { return len(p.vmAt) }

// PMs returns the full PM pool, sorted by id. The slice is freshly allocated.
func (p *Placement) PMs() []PM {
	out := make([]PM, len(p.pms))
	copy(out, p.pms)
	return out
}

// VMs returns all placed VMs, sorted by id.
func (p *Placement) VMs() []VM {
	out := make([]VM, 0, len(p.vmAt))
	for _, h := range p.hosts {
		out = append(out, h...)
	}
	slices.SortFunc(out, func(a, b VM) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Clone returns an independent copy of the placement. The pool and its id
// index are immutable and shared; every host list is copied into one backing
// array and capped at its length, so the first append on either side
// reallocates instead of writing into a neighbour or the original.
func (p *Placement) Clone() *Placement {
	c := &Placement{
		pms:   p.pms,
		index: p.index,
		hosts: make([][]VM, len(p.hosts)),
		sumRb: slices.Clone(p.sumRb),
		maxRe: slices.Clone(p.maxRe),
		used:  p.used,
		vmAt:  maps.Clone(p.vmAt),
	}
	flat := make([]VM, 0, len(p.vmAt))
	for pos, h := range p.hosts {
		from := len(flat)
		flat = append(flat, h...)
		c.hosts[pos] = flat[from:len(flat):len(flat)]
	}
	return c
}

// Matrix materialises the binary mapping X = [x_ij] of Eq. (6): rows are VMs
// and columns PMs, both in ascending id order, with the corresponding id
// slices returned alongside. Intended for audits and interoperability with
// formulations that want the paper's exact representation — it is O(n·m);
// the placement itself stores one host list per PM and one position per VM.
func (p *Placement) Matrix() (x [][]bool, vmIDs, pmIDs []int) {
	pmIDs = make([]int, len(p.pms))
	for j, pm := range p.pms {
		pmIDs[j] = pm.ID
	}
	vms := p.VMs()
	vmIDs = make([]int, len(vms))
	x = make([][]bool, len(vms))
	for i, vm := range vms {
		vmIDs[i] = vm.ID
		x[i] = make([]bool, len(p.pms))
		x[i][p.vmAt[vm.ID]] = true
	}
	return x, vmIDs, pmIDs
}

// SumRb returns Σ R_b over the VMs on a PM.
func (p *Placement) SumRb(pmID int) float64 {
	pos, ok := p.index.Pos(pmID)
	if !ok {
		return 0
	}
	return p.sumRb[pos]
}

// SumRp returns Σ R_p over the VMs on a PM (peak-provisioned footprint).
func (p *Placement) SumRp(pmID int) float64 {
	sum := 0.0
	for _, vm := range p.hosted(pmID) {
		sum += vm.Rp()
	}
	return sum
}

// MaxRe returns max R_e over the VMs on a PM — the uniform block size the
// paper reserves (§IV-B) — or 0 for an empty PM.
func (p *Placement) MaxRe(pmID int) float64 {
	pos, ok := p.index.Pos(pmID)
	if !ok {
		return 0
	}
	return p.maxRe[pos]
}

// ReservationSize returns the reserved footprint on a PM under a mapping
// table: blockSize · mapping(k) with blockSize = max R_e.
func (p *Placement) ReservationSize(pmID int, table *queuing.MappingTable) float64 {
	k := p.CountOn(pmID)
	if k == 0 {
		return 0
	}
	return p.MaxRe(pmID) * float64(table.Blocks(k))
}

// ReservedFootprint returns Σ R_b + reservation on a PM — the left side of
// Eq. (17) for the current host set.
func (p *Placement) ReservedFootprint(pmID int, table *queuing.MappingTable) float64 {
	return p.SumRb(pmID) + p.ReservationSize(pmID, table)
}
