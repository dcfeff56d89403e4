//go:build !race

// Allocation counts of the commit path. Not under the race detector: it makes
// sync.Pool drop a share of its Puts, so pooled requests would be counted.

package placesvc

import (
	"testing"

	"repro/internal/cloud"
)

// A warmed Arrive + Depart pair on a service nobody reads allocates nothing:
// the commit publishes by overwriting the cell, no Snapshot is built until a
// reader asks, and the request comes from the pool. (What is left — one op
// chunk per 256 ops and the unread ring's bounding clone — is far below one
// allocation per pair, which is what AllocsPerRun's integral average reads.)
func TestCommitAllocatesNothing(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(50, 100)})
	for id := 0; id < 200; id++ {
		if _, err := svc.Arrive(mkVM(id, 5, 5)); err != nil {
			t.Fatal(err)
		}
	}
	next := 200
	pair := func() {
		if _, err := svc.Arrive(mkVM(next, 5, 5)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Depart(next - 100); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 300; i++ { // every host list and the id map at working size
		pair()
	}
	if allocs := testing.AllocsPerRun(1000, pair); allocs != 0 {
		t.Errorf("warmed Arrive+Depart pair allocates %v times per pair, want 0", allocs)
	}
	if got, want := svc.Stats().VMs, 200; got != want {
		t.Fatalf("fleet drifted to %d VMs, want %d", got, want)
	}
}

// On a saturated pool, what one DepartBatch + ArriveBatch round allocates
// does not grow with the batch: ordering relinks through reused scratch and a
// refused member is not an error value. What remains is a fixed handful per
// call (the Algorithm-2 ordering's buffers) plus, for the 16× larger batch,
// four more doublings of the returned unplaced list, two op-ring chunks per
// 512 ops and a share of the unread ring's bounding clone — the slack below.
// (Before: 40 allocations per round at 16 VMs, 408 at 256.)
func TestBatchAllocsDoNotGrowWithBatch(t *testing.T) {
	perRound := func(n int) float64 {
		svc := newServiceT(t, Config{PMs: mkPool(100, 100)})
		// Every VM has the same spec, so Algorithm 2 orders a batch by id and
		// a full pool refuses exactly its largest ids. live is the FIFO of
		// placed ids, presized so the measured rounds never grow it.
		live := make([]int, 0, 1<<15)
		next := 0
		fill := make([]cloud.VM, 2000)
		for i := range fill {
			fill[i] = mkVM(next, 5, 5)
			next++
		}
		unplaced, err := svc.ArriveBatch(fill)
		if err != nil || len(unplaced) == 0 {
			t.Fatalf("fill: %d unplaced, err %v: pool not saturated", len(unplaced), err)
		}
		for _, vm := range fill[:len(fill)-len(unplaced)] {
			live = append(live, vm.ID)
		}
		// One round frees n slots and offers n + n/8 VMs: n are placed, n/8
		// refused, the pool stays full.
		ids, vms := make([]int, n), make([]cloud.VM, n+n/8)
		round := func() {
			copy(ids, live[:n])
			live = live[n:]
			if missing, err := svc.DepartBatch(ids); err != nil || len(missing) != 0 {
				t.Fatalf("DepartBatch: missing %v, err %v", missing, err)
			}
			for i := range vms {
				vms[i] = mkVM(next, 5, 5)
				next++
			}
			unplaced, err := svc.ArriveBatch(vms)
			if err != nil || len(unplaced) != n/8 || unplaced[0].ID != vms[n].ID {
				t.Fatalf("ArriveBatch(%d): %d unplaced (want the last %d), err %v", len(vms), len(unplaced), n/8, err)
			}
			for _, vm := range vms[:n] {
				live = append(live, vm.ID)
			}
		}
		for i := 0; i < 5; i++ {
			round()
		}
		return testing.AllocsPerRun(20, round)
	}
	small, large := perRound(16), perRound(256)
	const slack = 12
	if large > small+slack {
		t.Errorf("a 256-VM round allocates %v times, a 16-VM round %v: want at most %d more", large, small, slack)
	}
	t.Logf("allocations per DepartBatch+ArriveBatch round: %v at 16 VMs, %v at 256", small, large)
}
