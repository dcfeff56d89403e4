package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/markov"
	"repro/internal/queuing"
)

// placementAPI is the surface the differential harness drives on both
// implementations (Clone differs in return type and is handled by implPair).
type placementAPI interface {
	Assign(vm VM, pmID int) error
	Remove(vmID int) (int, error)
	PMOf(vmID int) (int, bool)
	VM(vmID int) (VM, bool)
	PM(pmID int) (PM, bool)
	VMsOn(pmID int) []VM
	CountOn(pmID int) int
	UsedPMs() []int
	NumUsedPMs() int
	NumVMs() int
	PMs() []PM
	VMs() []VM
	Matrix() ([][]bool, []int, []int)
	SumRb(pmID int) float64
	SumRp(pmID int) float64
	MaxRe(pmID int) float64
	ReservationSize(pmID int, table *queuing.MappingTable) float64
	ReservedFootprint(pmID int, table *queuing.MappingTable) float64
	InstantLoad(pmID int, states map[int]markov.State) float64
	IsViolated(pmID int, states map[int]markov.State) bool
}

var (
	_ placementAPI = (*Placement)(nil)
	_ placementAPI = (*refPlacement)(nil)
)

// implPair is one dense placement and the reference that has seen exactly
// the same operations.
type implPair struct {
	dense *Placement
	ref   *refPlacement
}

// diffPools are the PM id shapes the harness covers: both sides of IDIndex
// (slice and map), in and out of order, at an offset, and at the edges of int.
var diffPools = [][]int{
	{0, 1, 2, 3, 4, 5, 6, 7},                      // dense 0..m−1
	{9, 2, 7, 0, 4},                               // dense, unsorted, gaps
	{11, 1_000_014, 2_000_017, 5},                 // sparse: the map side
	{1<<40 + 3, 1<<40 + 0, 1<<40 + 5, 1<<40 + 1},  // huge, dense at an offset
	{3, 1 << 40, 1 << 41, math.MaxInt},            // huge and sparse
	{875, 876, 877, 878, 879, 880, 881, 882, 883}, // a federation shard's slice
	{0}, // one PM
	{math.MaxInt - 2, math.MaxInt, math.MaxInt - 1},   // dense against the top of int
	{40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},    // dense with one far outlier
	{1_000_000, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, // outlier pushes all to the map
}

// diffVMIDs is the VM id space ops draw from: small enough that ops collide
// (double assigns, removes of placed VMs), with ids far outside any dense
// range because the serving path mints unbounded ids.
var diffVMIDs = func() []int {
	ids := make([]int, 0, 32)
	for id := 0; id < 28; id++ {
		ids = append(ids, id)
	}
	return append(ids, 999_983, 1<<40, 1<<40+1, math.MaxInt)
}()

// diffMaxPairs bounds how many (placement, reference) pairs a run keeps live:
// the original plus clones, and clones of clones.
const diffMaxPairs = 4

// runPlacementOps decodes data as a sequence of Assign / Remove / Clone /
// switch-pair / failing ops, applies each to a dense Placement and to the
// map-based reference, and after every op compares every live pair through
// the whole read API — so an edit that leaked from a placement into its clone
// (or back) shows on the very op that caused it.
func runPlacementOps(t testing.TB, pmIDs []int, data []byte) {
	t.Helper()
	pms := make([]PM, len(pmIDs))
	for i, id := range pmIDs {
		pms[i] = PM{ID: id, Capacity: 50 + 7*float64(i)}
	}
	dense, err := NewPlacement(pms)
	ref, refErr := newRefPlacement(pms)
	if err != nil || refErr != nil {
		t.Fatalf("constructing pool %v: dense %v, reference %v", pmIDs, err, refErr)
	}
	table, err := queuing.NewMappingTable(len(diffVMIDs), 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	states := make(map[int]markov.State)
	for i, id := range diffVMIDs {
		if i%3 == 0 {
			states[id] = markov.On
		}
	}
	// PM ids probed on every comparison: the pool plus ids it does not hold,
	// below, between and above its members.
	probe := append([]int{-1, 1, 6, 12, 874, 884, 12345, 1<<40 + 2, 1<<40 + 7, math.MaxInt - 3, math.MinInt}, pmIDs...)

	pairs := []implPair{{dense, ref}}
	cur := 0
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pickPM := func() int { // one in (m+2) picks lands on an unknown PM
		if i := next() % (len(pmIDs) + 2); i < len(pmIDs) {
			return pmIDs[i]
		} else if i == len(pmIDs) {
			return -1
		}
		return probe[next()%len(probe)]
	}
	sameErr := func(op string, got, want error) {
		t.Helper()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("%s: dense error %v, reference error %v", op, got, want)
		}
	}
	for step := 0; len(data) > 0; step++ {
		p := pairs[cur]
		var op string
		switch kind := next() % 10; kind {
		case 0, 1, 2, 3: // Assign — also of an already placed VM, also to an unknown PM
			vm := VM{
				ID: diffVMIDs[next()%len(diffVMIDs)], POn: 0.01, POff: 0.09,
				// Tenths and sevenths: sums whose low bits depend on the fold order.
				Rb: 0.1 * float64(1+next()), Re: float64(next()) / 7,
			}
			pmID := pickPM()
			op = fmt.Sprintf("step %d: Assign(%+v, %d)", step, vm, pmID)
			sameErr(op, p.dense.Assign(vm, pmID), p.ref.Assign(vm, pmID))
		case 4, 5, 6: // Remove — also of a VM that is not placed
			vmID := diffVMIDs[next()%len(diffVMIDs)]
			op = fmt.Sprintf("step %d: Remove(%d)", step, vmID)
			got, gotErr := p.dense.Remove(vmID)
			want, wantErr := p.ref.Remove(vmID)
			sameErr(op, gotErr, wantErr)
			if got != want {
				t.Fatalf("%s: returned PM %d, reference %d", op, got, want)
			}
		case 7: // Clone the current pair and carry on editing the clone
			op = fmt.Sprintf("step %d: Clone", step)
			c := implPair{p.dense.Clone(), p.ref.Clone()}
			if len(pairs) < diffMaxPairs {
				pairs = append(pairs, c)
				cur = len(pairs) - 1
			} else {
				cur = (cur + 1) % len(pairs)
				pairs[cur] = c
			}
		case 8: // Switch to another live pair: edit an original after its clone
			op = fmt.Sprintf("step %d: switch pair", step)
			cur = (cur + 1) % len(pairs)
		case 9: // Assign of an invalid VM: must fail and change nothing
			vm := VM{ID: diffVMIDs[next()%len(diffVMIDs)], POn: 0.01, POff: 0.09, Rb: 1, Re: 1}
			switch next() % 5 {
			case 0:
				vm.ID = -1 - vm.ID
			case 1:
				vm.Rb = math.NaN()
			case 2:
				vm.Re = math.Inf(1)
			case 3:
				vm.POn = 0
			case 4:
				vm.Rb, vm.Re = 0, 0
			}
			pmID := pickPM()
			op = fmt.Sprintf("step %d: Assign(invalid %+v, %d)", step, vm, pmID)
			gotErr, wantErr := p.dense.Assign(vm, pmID), p.ref.Assign(vm, pmID)
			if gotErr == nil {
				t.Fatalf("%s: accepted", op)
			}
			// NaN never equals itself, so compare these two by presence only.
			if wantErr == nil {
				t.Fatalf("%s: reference accepted", op)
			}
		}
		for i, pair := range pairs {
			if diff := diffPlacements(pair.dense, pair.ref, probe, table, states); diff != "" {
				t.Fatalf("pool %v, after %s (current pair %d): pair %d: %s", pmIDs, op, cur, i, diff)
			}
		}
	}
}

// diffPlacements compares the two implementations through every read
// accessor — floats bit for bit — and describes the first difference.
func diffPlacements(got, want placementAPI, pmProbe []int, table *queuing.MappingTable, states map[int]markov.State) string {
	bits := math.Float64bits
	if g, w := got.NumVMs(), want.NumVMs(); g != w {
		return fmt.Sprintf("NumVMs = %d, want %d", g, w)
	}
	if g, w := got.NumUsedPMs(), want.NumUsedPMs(); g != w {
		return fmt.Sprintf("NumUsedPMs = %d, want %d", g, w)
	}
	if g, w := got.UsedPMs(), want.UsedPMs(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("UsedPMs = %v, want %v", g, w)
	}
	if g, w := got.PMs(), want.PMs(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("PMs = %v, want %v", g, w)
	}
	if g, w := got.VMs(), want.VMs(); !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("VMs = %v, want %v", g, w)
	}
	gx, gv, gp := got.Matrix()
	wx, wv, wp := want.Matrix()
	if !reflect.DeepEqual(gx, wx) || !reflect.DeepEqual(gv, wv) || !reflect.DeepEqual(gp, wp) {
		return fmt.Sprintf("Matrix = %v %v %v, want %v %v %v", gx, gv, gp, wx, wv, wp)
	}
	for _, pmID := range pmProbe {
		if g, w := got.CountOn(pmID), want.CountOn(pmID); g != w {
			return fmt.Sprintf("CountOn(%d) = %d, want %d", pmID, g, w)
		}
		if g, w := got.VMsOn(pmID), want.VMsOn(pmID); !reflect.DeepEqual(g, w) {
			return fmt.Sprintf("VMsOn(%d) = %v, want %v", pmID, g, w)
		}
		gpm, gok := got.PM(pmID)
		wpm, wok := want.PM(pmID)
		if gpm != wpm || gok != wok {
			return fmt.Sprintf("PM(%d) = %v %t, want %v %t", pmID, gpm, gok, wpm, wok)
		}
		if g, w := got.IsViolated(pmID, states), want.IsViolated(pmID, states); g != w {
			return fmt.Sprintf("IsViolated(%d) = %t, want %t", pmID, g, w)
		}
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"SumRb", got.SumRb(pmID), want.SumRb(pmID)},
			{"SumRp", got.SumRp(pmID), want.SumRp(pmID)},
			{"MaxRe", got.MaxRe(pmID), want.MaxRe(pmID)},
			{"ReservationSize", got.ReservationSize(pmID, table), want.ReservationSize(pmID, table)},
			{"ReservedFootprint", got.ReservedFootprint(pmID, table), want.ReservedFootprint(pmID, table)},
			{"InstantLoad", got.InstantLoad(pmID, states), want.InstantLoad(pmID, states)},
		} {
			if bits(f.got) != bits(f.want) {
				return fmt.Sprintf("%s(%d) = %v (%#x), want %v (%#x)", f.name, pmID, f.got, bits(f.got), f.want, bits(f.want))
			}
		}
	}
	for _, vmID := range append([]int{-1, 28, 1<<40 + 2}, diffVMIDs...) {
		gpm, gok := got.PMOf(vmID)
		wpm, wok := want.PMOf(vmID)
		if gpm != wpm || gok != wok {
			return fmt.Sprintf("PMOf(%d) = %d %t, want %d %t", vmID, gpm, gok, wpm, wok)
		}
		gvm, gok := got.VM(vmID)
		wvm, wok := want.VM(vmID)
		if gvm != wvm || gok != wok {
			return fmt.Sprintf("VM(%d) = %v %t, want %v %t", vmID, gvm, gok, wvm, wok)
		}
	}
	return ""
}

// TestPlacementMatchesMapReference drives seeded random op sequences over
// every pool shape; FuzzPlacementOps explores the same harness further.
func TestPlacementMatchesMapReference(t *testing.T) {
	for shape, pmIDs := range diffPools {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(shape)))
			data := make([]byte, 600)
			rng.Read(data)
			runPlacementOps(t, pmIDs, data)
		}
	}
}

// FuzzPlacementOps: any op sequence over any pool shape leaves the dense
// Placement indistinguishable from the map-based reference.
func FuzzPlacementOps(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for shape := range diffPools {
		data := make([]byte, 200)
		rng.Read(data)
		f.Add(uint8(shape), data)
	}
	// One PM filled, cloned, then drained and refilled on both sides.
	f.Add(uint8(6), []byte{0, 1, 9, 9, 0, 0, 2, 9, 9, 0, 0, 3, 9, 9, 0, 7, 4, 2, 0, 4, 9, 9, 0, 8, 4, 1, 0, 5, 9, 9, 0})
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		runPlacementOps(t, diffPools[int(shape)%len(diffPools)], data)
	})
}

// TestCloneIndependentAfterInPlaceEdits pins the aliasing hazards of slice
// host lists directly: a Remove shifts a list's tail in place and a following
// Assign appends into the vacated capacity, so a clone that shared a backing
// array with its original — or whose per-PM lists could grow into each other
// inside the clone's own backing array — would see foreign VMs.
func TestCloneIndependentAfterInPlaceEdits(t *testing.T) {
	build := func() *Placement {
		p, err := NewPlacement(pool(3, 1000))
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < 12; id++ {
			if err := p.Assign(VM{ID: id, POn: 0.01, POff: 0.09, Rb: 0.1 * float64(id+1), Re: float64(id)}, id%3); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	fingerprint := func(p *Placement) string {
		s := fmt.Sprint(p.VMs(), p.UsedPMs(), p.NumVMs())
		for _, pm := range p.PMs() {
			s += fmt.Sprint(p.VMsOn(pm.ID), math.Float64bits(p.SumRb(pm.ID)), math.Float64bits(p.MaxRe(pm.ID)))
		}
		return s
	}
	edit := func(p *Placement) {
		// Shift PM 0's list in place, refill past its old length, and empty
		// then reuse PM 1 — every way a host list's backing array is rewritten.
		for _, id := range []int{3, 0} {
			if _, err := p.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{100, 101, 102, 103} {
			if err := p.Assign(VM{ID: id, POn: 0.01, POff: 0.09, Rb: 7, Re: 50}, 0); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range []int{1, 4, 7, 10} {
			if _, err := p.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Assign(VM{ID: 200, POn: 0.01, POff: 0.09, Rb: 9, Re: 9}, 1); err != nil {
			t.Fatal(err)
		}
	}

	// Editing the original leaves the clone alone …
	orig := build()
	clone := orig.Clone()
	want := fingerprint(clone)
	edit(orig)
	if got := fingerprint(clone); got != want {
		t.Errorf("editing the original changed its clone:\n got %s\nwant %s", got, want)
	}
	// … editing the clone leaves the original alone …
	orig = build()
	clone = orig.Clone()
	want = fingerprint(orig)
	edit(clone)
	if got := fingerprint(orig); got != want {
		t.Errorf("editing a clone changed the original:\n got %s\nwant %s", got, want)
	}
	// … the edited clone equals the same edits applied without any cloning
	// (its PMs did not grow into each other inside the shared backing array) …
	direct := build()
	edit(direct)
	if got, want := fingerprint(clone), fingerprint(direct); got != want {
		t.Errorf("edits on a clone diverge from the same edits on a fresh placement:\n got %s\nwant %s", got, want)
	}
	// … and a clone of a clone, adopted as a base and cloned again while its
	// descendants keep changing (the snapshot path), never moves.
	base := clone.Clone()
	want = fingerprint(base)
	for round := 0; round < 3; round++ {
		next := base.Clone()
		if _, err := next.Remove(200); err != nil {
			t.Fatal(err)
		}
		if err := next.Assign(VM{ID: 300 + round, POn: 0.01, POff: 0.09, Rb: 1, Re: 1}, round); err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(base); got != want {
			t.Fatalf("round %d: replaying onto a clone changed the adopted base", round)
		}
	}
}
