package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/telemetry"
)

// heteroFleet generates VMs with individual switch probabilities — the input
// that exercises the rounding and exact-hetero admission paths.
func heteroFleet(rng *rand.Rand, n int) ([]cloud.VM, []cloud.PM) {
	vms := make([]cloud.VM, n)
	for i := range vms {
		vms[i] = cloud.VM{
			ID:   i,
			POn:  0.005 + 0.045*rng.Float64(),
			POff: 0.05 + 0.25*rng.Float64(),
			Rb:   2 + 18*rng.Float64(),
			Re:   2 + 18*rng.Float64(),
		}
	}
	pms := make([]cloud.PM, n)
	for i := range pms {
		pms[i] = cloud.PM{ID: i, Capacity: 80 + 20*rng.Float64()}
	}
	return vms, pms
}

// decimalFleet generates demands in tenths and PM capacities of one or two
// units: Rb sums that are exact in decimal but round either way in binary,
// so PMs filled to exactly their capacity are common. This is the input that
// exercises the index's capEps slack — a score a rounding error below the
// need must still be probed, because the admission test accepts it.
func decimalFleet(rng *rand.Rand, n int) ([]cloud.VM, []cloud.PM) {
	vms := make([]cloud.VM, n)
	for i := range vms {
		vms[i] = cloud.VM{
			ID:   i,
			POn:  0.01,
			POff: 0.09,
			Rb:   float64(1+rng.Intn(9)) / 10,
			Re:   float64(1+rng.Intn(4)) / 10,
		}
	}
	pms := make([]cloud.PM, n)
	for i := range pms {
		pms[i] = cloud.PM{ID: i, Capacity: float64(1 + rng.Intn(2))}
	}
	return vms, pms
}

// diffResults compares two placement results VM by VM; it returns a
// description of the first difference, or "" when identical.
func diffResults(a, b *Result) string {
	if len(a.Unplaced) != len(b.Unplaced) {
		return fmt.Sprintf("unplaced count %d vs %d", len(a.Unplaced), len(b.Unplaced))
	}
	for i := range a.Unplaced {
		if a.Unplaced[i].ID != b.Unplaced[i].ID {
			return fmt.Sprintf("unplaced[%d] = VM %d vs VM %d", i, a.Unplaced[i].ID, b.Unplaced[i].ID)
		}
	}
	av, bv := a.Placement.VMs(), b.Placement.VMs()
	if len(av) != len(bv) {
		return fmt.Sprintf("placed count %d vs %d", len(av), len(bv))
	}
	for _, vm := range av {
		pa, _ := a.Placement.PMOf(vm.ID)
		pb, ok := b.Placement.PMOf(vm.ID)
		if !ok {
			return fmt.Sprintf("VM %d placed only in first result", vm.ID)
		}
		if pa != pb {
			return fmt.Sprintf("VM %d on PM %d vs PM %d", vm.ID, pa, pb)
		}
	}
	return ""
}

// linearPlace is the paper's O(n·m) first-fit scan under the strategy's own
// ordering and admission test: the oracle the indexed Place must reproduce.
func linearPlace(t *testing.T, s Strategy, vms []cloud.VM, pms []cloud.PM) *Result {
	t.Helper()
	var res *Result
	var err error
	switch st := s.(type) {
	case QueuingFFD:
		table, terr := st.Table(vms)
		if terr != nil {
			t.Fatal(terr)
		}
		ordered, oerr := st.order(vms)
		if oerr != nil {
			t.Fatal(oerr)
		}
		res, err = firstFit(ordered, pms, func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
			return st.admit(p, vm, pmID, table)
		})
	case FFDByRp:
		res, err = firstFit(st.order(vms), pms, st.admit)
	case FFDByRb:
		rb := RBEX{MaxVMsPerPM: st.MaxVMsPerPM}
		res, err = firstFit(rb.order(vms), pms, rb.admit)
	case RBEX:
		res, err = firstFit(st.order(vms), pms, st.admit)
	default:
		t.Fatalf("no linear oracle for %T", s)
	}
	if err != nil {
		t.Fatalf("linear place: %v", err)
	}
	return res
}

// TestPlacerEquivalence is the cross-validation property of the first-fit
// index: for every strategy, Place must produce the exact placement the
// linear scan does — same VM→PM mapping, same unplaced set — on random
// fleets. The index may only prune PMs the linear scan would also reject, so
// any divergence is a soundness or ordering bug.
func TestPlacerEquivalence(t *testing.T) {
	strategies := []struct {
		name  string
		s     Strategy
		n     int
		fleet func(*rand.Rand, int) ([]cloud.VM, []cloud.PM)
	}{
		{"queue", QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, 120, randomFleet},
		{"queue-hetero-rounded", QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, 120, heteroFleet},
		{"queue-exact-hetero", QueuingFFD{Rho: 0.01, MaxVMsPerPM: 8, ExactHetero: true}, 24, heteroFleet},
		{"queue-decimal", QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, 120, decimalFleet},
		{"rp", FFDByRp{}, 150, randomFleet},
		{"rp-capped", FFDByRp{MaxVMsPerPM: 4}, 150, randomFleet},
		{"rp-decimal", FFDByRp{}, 150, decimalFleet},
		{"rb", FFDByRb{}, 150, randomFleet},
		{"rb-decimal", FFDByRb{}, 150, decimalFleet},
		{"rbex", RBEX{Delta: 0.3}, 150, randomFleet},
	}
	for _, tc := range strategies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prop := func(seed int64) bool {
				vms, pms := tc.fleet(rand.New(rand.NewSource(seed)), tc.n)
				indexed, err := tc.s.Place(vms, pms)
				if err != nil {
					t.Fatalf("indexed place: %v", err)
				}
				if diff := diffResults(indexed, linearPlace(t, tc.s, vms, pms)); diff != "" {
					t.Logf("seed %d: %s", seed, diff)
					return false
				}
				return true
			}
			cfg := &quick.Config{MaxCount: 20}
			if tc.name == "queue-exact-hetero" {
				cfg.MaxCount = 5 // O(k²) DP per admission test
			}
			if err := quick.Check(prop, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPlacerEquivalenceTightPool pins the equivalence where it is most
// fragile: a pool too small for the fleet, so the index and the linear scan
// must agree on the unplaced set, not just the mapping.
func TestPlacerEquivalenceTightPool(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vms, _ := randomFleet(rng, 200)
	pms := mkPool(9, 90) // deliberately insufficient
	s := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
	indexed, err := s.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(indexed.Unplaced) == 0 {
		t.Fatal("expected unplaced VMs on the tight pool")
	}
	if diff := diffResults(indexed, linearPlace(t, s, vms, pms)); diff != "" {
		t.Fatalf("indexed vs linear: %s", diff)
	}
}

// linearArrive is Online.TryArrive without the index: the paper's O(m) scan
// for the first PM admitting vm under o's current placement and table. It
// leaves o's index stale, so an Online driven through it must never call
// Arrive or TryArrive.
func linearArrive(o *Online, vm cloud.VM) (pmID int, ok bool, err error) {
	if err := vm.Validate(); err != nil {
		return 0, false, err
	}
	for i := 0; i < o.place.NumPMs(); i++ {
		if pmID := o.place.PMAt(i).ID; o.strategy.admit(o.place, vm, pmID, o.table) {
			if err := o.place.Assign(vm, pmID); err != nil {
				return 0, false, err
			}
			return pmID, true, nil
		}
	}
	return 0, false, nil
}

// TestOnlinePlacerEquivalence drives two online consolidators — one through
// the index, one through the linear scan — over one random
// arrival/departure/refresh sequence and requires identical decisions at
// every step, exercising the persistent index across mutations and table
// swaps.
func TestOnlinePlacerEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pms := mkPool(24, 100)
	mk := func() *Online {
		o, err := NewOnline(QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, pms, 0.01, 0.09)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	indexed, linear := mk(), mk()
	var placed []int
	nextID := 0
	for step := 0; step < 600; step++ {
		switch r := rng.Float64(); {
		case r < 0.6 || len(placed) == 0:
			vm := cloud.VM{
				ID:   nextID,
				POn:  0.005 + 0.045*rng.Float64(),
				POff: 0.05 + 0.25*rng.Float64(),
				Rb:   2 + 18*rng.Float64(),
				Re:   2 + 18*rng.Float64(),
			}
			nextID++
			pmA, errA := indexed.Arrive(vm)
			pmB, okB, errB := linearArrive(linear, vm)
			if errB != nil {
				t.Fatalf("step %d: linear arrive: %v", step, errB)
			}
			if (errA == nil) != okB {
				t.Fatalf("step %d: arrive outcomes diverge: %v vs placed=%v", step, errA, okB)
			}
			if errA != nil {
				if !errors.Is(errA, cloud.ErrNoCapacity) {
					t.Fatalf("step %d: unexpected arrive error: %v", step, errA)
				}
				continue
			}
			if pmA != pmB {
				t.Fatalf("step %d: VM %d → PM %d (indexed) vs PM %d (linear)", step, vm.ID, pmA, pmB)
			}
			placed = append(placed, vm.ID)
		case r < 0.95:
			i := rng.Intn(len(placed))
			id := placed[i]
			placed[i] = placed[len(placed)-1]
			placed = placed[:len(placed)-1]
			if err := indexed.Depart(id); err != nil {
				t.Fatalf("step %d: indexed depart: %v", step, err)
			}
			if err := linear.Depart(id); err != nil {
				t.Fatalf("step %d: linear depart: %v", step, err)
			}
		default:
			errA, errB := indexed.RefreshTable(), linear.RefreshTable()
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: refresh errors diverge: %v vs %v", step, errA, errB)
			}
		}
	}
	if got, want := indexed.Placement().NumVMs(), linear.Placement().NumVMs(); got != want {
		t.Fatalf("placed VM count: %d vs %d", got, want)
	}
	for _, vm := range linear.Placement().VMs() {
		pa, _ := indexed.Placement().PMOf(vm.ID)
		pb, _ := linear.Placement().PMOf(vm.ID)
		if pa != pb {
			t.Fatalf("final state: VM %d on PM %d (indexed) vs PM %d (linear)", vm.ID, pa, pb)
		}
	}
}

// indexEvents collects the PlaceIndexEvents a traced Place emits.
type indexEvents []telemetry.PlaceIndexEvent

func (e *indexEvents) Enabled() bool { return true }

func (e *indexEvents) Emit(ev telemetry.Event) {
	if x, ok := ev.(telemetry.PlaceIndexEvent); ok {
		*e = append(*e, x)
	}
}

// When every VM has the same R_e, the max-R_e index score C − ΣR_b −
// R_e·mapping(k+1) is the exact Eq. (17) headroom of a non-empty PM, and
// integer demands keep it free of round-off; empty PMs admit any VM of this
// fleet. So the index has no false positive: every probe is its query's first
// and admits. Packing the fleet until the pool refuses VMs drives the PMs
// through every occupancy k, which a score built on the wrong mapping entry
// (say mapping(k)) turns into rejected probes.
func TestIndexScoreExactOnEqualRe(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	vms := make([]cloud.VM, 600)
	for i := range vms {
		vms[i] = mkVM(i, float64(2+rng.Intn(11)), 6)
	}
	pms := mkPool(40, 100)

	var events indexEvents
	res, err := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16, Tracer: &events}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) == 0 {
		t.Fatal("the pool admitted the whole fleet; the test needs refusals")
	}
	if len(events) != 1 {
		t.Fatalf("Place emitted %d PlaceIndexEvents, want 1", len(events))
	}
	if ev := events[0]; ev.Queries != uint64(len(vms)) || ev.Probes != ev.Hits {
		t.Errorf("Place: %d queries, %d probes, %d hits; want %d queries and probes == hits",
			ev.Queries, ev.Probes, ev.Hits, len(vms))
	}

	o, err := NewOnline(QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, pms, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, vm := range vms {
		_, ok, err := o.TryArrive(vm)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("Online admitted the whole fleet; the test needs refusals")
	}
	if ix := o.index; ix.probes != ix.hits {
		t.Errorf("Online: %d queries, %d probes, %d hits; want probes == hits", ix.queries, ix.probes, ix.hits)
	}
}
