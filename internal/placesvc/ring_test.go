package placesvc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/telemetry"
)

// Snapshots taken at arbitrary points must materialise correctly across op
// chunk boundaries: the window (head, skip, count) replays exactly the ops
// committed at snapshot time, no matter how many chunks it spans.
func TestRingChunkBoundaries(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(5000, 1e9), MaxBatch: 1})
	type point struct {
		snap *Snapshot
		vms  int
	}
	var points []point
	total := 3*opChunkSize + 17
	for i := 0; i < total; i++ {
		if _, err := svc.Arrive(mkVM(i, 1, 1)); err != nil {
			t.Fatal(err)
		}
		// Sample around the chunk boundaries and at a few interior points.
		if r := (i + 1) % opChunkSize; r <= 1 || r == opChunkSize-1 || i%97 == 0 {
			points = append(points, point{svc.Snapshot(), i + 1})
		}
	}
	for _, pt := range points {
		p, err := pt.snap.Placement()
		if err != nil {
			t.Fatal(err)
		}
		if p.NumVMs() != pt.vms {
			t.Errorf("snapshot v%d materialised %d VMs, want %d", pt.snap.Version(), p.NumVMs(), pt.vms)
		}
	}
}

// When readers materialise snapshots, the committer adopts their placements
// as new bases instead of cloning: the adoptions counter moves, the clone
// fallback stays untouched, and snapshots published before the base swap
// (earlier epochs) still materialise correctly afterwards.
func TestSnapshotAdoption(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newServiceT(t, Config{PMs: mkPool(5000, 1e9), MaxBatch: 1, Registry: reg})
	firstEpoch := svc.Snapshot().Epoch()
	var preSwap *Snapshot
	for i := 0; i < 6*rebuildMinOps; i++ {
		if _, err := svc.Arrive(mkVM(i, 1, 1)); err != nil {
			t.Fatal(err)
		}
		snap := svc.Snapshot()
		if preSwap == nil && i > rebuildMinOps/2 {
			preSwap = snap // old-epoch snapshot to check after the swap
		}
		// A monitoring reader: materialise the latest snapshot so the
		// committer has something to adopt.
		if _, err := snap.Placement(); err != nil {
			t.Fatal(err)
		}
	}
	tsnap := reg.Snapshot()
	if got := tsnap.Counters["placesvc_snapshot_adoptions_total"]; got == 0 {
		t.Error("no snapshot adoptions despite a reader materialising every version")
	}
	if got := tsnap.Counters["placesvc_snapshot_rebuilds_total"]; got != 0 {
		t.Errorf("clone fallback ran %d times despite adoptable materialisations", got)
	}
	last := svc.Snapshot()
	if last.Epoch() == firstEpoch {
		t.Error("epoch never advanced across adoptions")
	}
	p, err := preSwap.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if want := int(preSwap.Stats().Placed); p.NumVMs() != want {
		t.Errorf("pre-swap snapshot materialised %d VMs, want %d", p.NumVMs(), want)
	}
}

// A reader-materialised placement that a commit adopts as the next base is
// shared by every later snapshot of that epoch, each of which clones it and
// replays its own ring window on the clone. With host lists stored as slices,
// a replay that shifted or appended in place through a shared backing array
// would rewrite the base — and every earlier materialisation — under its
// readers. Churn a small pool (several VMs per PM, departures from the middle
// of host lists, refills), materialise every version, and check that no
// materialisation ever changes after it was taken and that the newest equals
// the live placement.
func TestAdoptedBaseNeverWrittenThrough(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newServiceT(t, Config{PMs: mkPool(40, 100), MaxBatch: 1, Registry: reg})
	fingerprint := func(p *cloud.Placement) string {
		s := fmt.Sprint(p.NumVMs(), p.UsedPMs())
		for _, pmID := range p.UsedPMs() {
			s += fmt.Sprint(p.VMsOn(pmID), math.Float64bits(p.SumRb(pmID)), math.Float64bits(p.MaxRe(pmID)))
		}
		return s
	}
	type taken struct {
		p    *cloud.Placement
		want string
	}
	var seen []taken
	observe := func() {
		p, err := svc.Snapshot().Placement()
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, taken{p, fingerprint(p)})
	}
	rng := rand.New(rand.NewSource(5))
	var live []int
	for id := 0; id < 10*rebuildMinOps; id++ {
		if len(live) > 150 || (len(live) > 60 && rng.Intn(2) == 0) {
			k := rng.Intn(len(live))
			if err := svc.Depart(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
			observe()
		}
		if _, err := svc.Arrive(mkVM(id, 1+4*rng.Float64(), 1+4*rng.Float64())); err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		observe()
	}
	if got := reg.Snapshot().Counters["placesvc_snapshot_adoptions_total"]; got < 3 {
		t.Fatalf("only %d adoptions: the test did not exercise adopted bases", got)
	}
	for i, s := range seen {
		if got := fingerprint(s.p); got != s.want {
			t.Fatalf("materialisation %d of %d changed after it was taken", i, len(seen))
		}
	}
	if got, want := seen[len(seen)-1].want, fingerprint(svc.online.Placement()); got != want {
		t.Errorf("newest snapshot diverges from the live placement:\n got %s\nwant %s", got, want)
	}
}

// With nobody reading snapshots, ring growth is bounded by the clone
// fallback: a churny arrive/depart workload whose fleet stays small must
// trigger base re-clones (rebuilds counter) and keep the window short — but
// no shorter than the pool is large: a clone costs O(PMs + VMs), so a big,
// nearly empty pool must not be re-cloned every few hundred ops.
func TestSnapshotCloneFallback(t *testing.T) {
	for _, pms := range []int{50, 1000} {
		reg := telemetry.NewRegistry()
		svc := newServiceT(t, Config{PMs: mkPool(pms, 1e9), MaxBatch: 1, Registry: reg})
		const ops = 40 * rebuildMinOps
		for i := 0; i < ops/2; i++ {
			if _, err := svc.Arrive(mkVM(i, 1, 1)); err != nil {
				t.Fatal(err)
			}
			if err := svc.Depart(i); err != nil {
				t.Fatal(err)
			}
		}
		threshold := cloneFallbackFactor * max(rebuildMinOps, pms/2)
		got := reg.Snapshot().Counters["placesvc_snapshot_rebuilds_total"]
		if got == 0 {
			t.Errorf("%d PMs: ring window never rebased: clone fallback did not bound an unread ring", pms)
		}
		if most := uint64(ops / threshold); got > most {
			t.Errorf("%d PMs: %d base clones in %d ops, want at most %d (one per %d ops)", pms, got, ops, most, threshold)
		}
		if w := svc.ring.count; w > threshold+1 {
			t.Errorf("%d PMs: ring window grew to %d ops despite the fallback", pms, w)
		}
		p, err := svc.Snapshot().Placement()
		if err != nil {
			t.Fatal(err)
		}
		if p.NumVMs() != 0 {
			t.Errorf("%d PMs: final snapshot holds %d VMs, want 0", pms, p.NumVMs())
		}
	}
}

// Concurrent readers materialising every published snapshot while writers
// churn the fleet: the publication edge must survive the race
// detector, and every materialisation must be internally consistent
// (Stats().VMs == materialised VM count).
func TestRingConcurrentReaders(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(2000, 1e9), MaxBatch: 16})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := svc.Snapshot()
				p, err := snap.Placement()
				if err != nil {
					t.Errorf("materialise: %v", err)
					return
				}
				if p.NumVMs() != snap.Stats().VMs {
					t.Errorf("snapshot v%d: materialised %d VMs, stats say %d",
						snap.Version(), p.NumVMs(), snap.Stats().VMs)
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 400; i++ {
				id := w*1_000_000 + i
				if _, err := svc.Arrive(mkVM(id, 1, 1)); err != nil && !errors.Is(err, cloud.ErrNoCapacity) {
					t.Errorf("arrive: %v", err)
					return
				}
				if i%3 == 2 {
					if err := svc.Depart(id); err != nil {
						t.Errorf("depart: %v", err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
}

// DepartBatch commits all its removals together, reports unknown ids in
// missing, and leaves the fleet identical to per-id departures.
func TestDepartBatch(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(50, 100), MaxBatch: 8})
	for i := 0; i < 20; i++ {
		if _, err := svc.Arrive(mkVM(i, 5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	ids := []int{0, 3, 99, 5, 3} // 99 unknown; 3 repeats (second is gone)
	missing, err := svc.DepartBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint([]int{99, 3}); fmt.Sprint(missing) != want {
		t.Errorf("missing = %v, want %v", missing, want)
	}
	st := svc.Stats()
	if st.VMs != 17 {
		t.Errorf("fleet holds %d VMs after batch departure, want 17", st.VMs)
	}
	if st.Departed != 3 {
		t.Errorf("Departed = %d, want 3", st.Departed)
	}
	if missing, err := svc.DepartBatch(nil); err != nil || missing != nil {
		t.Errorf("empty DepartBatch = (%v, %v), want (nil, nil)", missing, err)
	}
	p, err := svc.Snapshot().Placement()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 3, 5} {
		if _, ok := p.PMOf(id); ok {
			t.Errorf("VM %d still placed after DepartBatch", id)
		}
	}
}
