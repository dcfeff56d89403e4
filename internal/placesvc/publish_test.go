package placesvc

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Reader-built snapshots under churn (run it with -race): two writers commit
// while four readers loop Snapshot → Stats / Placement / Overflows. Every
// snapshot handed out is complete and self-consistent, versions never go back
// for any one goroutine, one version is one object, a writer that snapshots
// after its own Arrive returned sees that commit, and the O(1) accessors agree
// with the snapshot once the writers stop.
func TestSnapshotReadersUnderChurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newServiceT(t, Config{PMs: mkPool(200, 100), Registry: reg})
	check := func(who string, snap *Snapshot) bool {
		st := snap.Stats()
		if st.Version != snap.Version() || st.Version != st.Commits {
			t.Errorf("%s: snapshot version %d, stats version %d after %d commits", who, snap.Version(), st.Version, st.Commits)
			return false
		}
		p, err := snap.Placement()
		if err != nil {
			t.Errorf("%s: materialising v%d: %v", who, snap.Version(), err)
			return false
		}
		if p.NumVMs() != st.VMs || snap.Headroom() != snap.Slots()-st.VMs {
			t.Errorf("%s: v%d materialised %d VMs, stats say %d, headroom %d of %d",
				who, snap.Version(), p.NumVMs(), st.VMs, snap.Headroom(), snap.Slots())
			return false
		}
		if ov, err := snap.Overflows(); err != nil || len(ov) != 0 {
			t.Errorf("%s: v%d overflows %v, err %v", who, snap.Version(), ov, err)
			return false
		}
		return true
	}
	// next reads the snapshot twice and holds it against the previous one.
	next := func(who string, prev *Snapshot) *Snapshot {
		a, b := svc.Snapshot(), svc.Snapshot()
		for _, pair := range [][2]*Snapshot{{prev, a}, {a, b}} {
			old, cur := pair[0], pair[1]
			if cur.Version() < old.Version() {
				t.Errorf("%s: version went %d → %d", who, old.Version(), cur.Version())
			}
			if cur.Version() == old.Version() && cur != old {
				t.Errorf("%s: two Snapshot objects for version %d", who, cur.Version())
			}
		}
		return b
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			who := fmt.Sprintf("reader %d", r)
			prev := svc.Snapshot()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev = next(who, prev)
				if !check(who, prev) {
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			who := fmt.Sprintf("writer %d", w)
			rng := rand.New(rand.NewSource(int64(w)))
			var live []int
			for i := 0; i < 400; i++ {
				before := svc.Snapshot().Version()
				vm := mkVM(w*1_000_000+i, 1+4*rng.Float64(), 1+4*rng.Float64())
				pmID, err := svc.Arrive(vm)
				if err != nil {
					t.Errorf("%s: arrive %d: %v", who, vm.ID, err)
					return
				}
				live = append(live, vm.ID)
				snap := svc.Snapshot()
				if snap.Version() <= before {
					t.Errorf("%s: version %d after its own commit, %d before it", who, snap.Version(), before)
					return
				}
				if i%8 == 0 {
					if !check(who, snap) {
						return
					}
					p, _ := snap.Placement()
					if got, ok := p.PMOf(vm.ID); !ok || got != pmID {
						t.Errorf("%s: VM %d answered on PM %d, its own snapshot says %d (present %v)", who, vm.ID, pmID, got, ok)
						return
					}
				}
				if len(live) > 100 {
					k := rng.Intn(len(live))
					if err := svc.Depart(live[k]); err != nil {
						t.Errorf("%s: depart %d: %v", who, live[k], err)
						return
					}
					live = append(live[:k], live[k+1:]...)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	snap := svc.Snapshot()
	if !check("final", snap) {
		return
	}
	if got, want := svc.Stats(), snap.Stats(); got != want {
		t.Errorf("Service.Stats() = %+v, snapshot's %+v", got, want)
	}
	if svc.Headroom() != snap.Headroom() || svc.Occupancy() != snap.Occupancy() || svc.Slots() != snap.Slots() {
		t.Errorf("service reads headroom %d occupancy %v slots %d, its snapshot %d %v %d",
			svc.Headroom(), svc.Occupancy(), svc.Slots(), snap.Headroom(), snap.Occupancy(), snap.Slots())
	}
	if again := svc.Snapshot(); again != snap {
		t.Error("two reads with no commit between returned different objects")
	}
	if got := reg.Snapshot().Counters["placesvc_snapshot_adoptions_total"]; got < 1 {
		t.Errorf("%d adoptions: no reader materialisation ever became a base", got)
	}
}

// Readers released together onto a version nobody has read yet race to build
// it; all of them must come back with the same object.
func TestFirstReadersShareOneSnapshot(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(50, 100), MaxBatch: 1})
	const readers, rounds = 4, 300
	for round := 0; round < rounds; round++ {
		if _, err := svc.Arrive(mkVM(round, 1, 1)); err != nil {
			t.Fatal(err)
		}
		var got [readers]*Snapshot
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		for r := range got {
			ready.Add(1)
			done.Add(1)
			go func(r int) {
				defer done.Done()
				ready.Done()
				<-start
				got[r] = svc.Snapshot()
			}(r)
		}
		ready.Wait()
		close(start)
		done.Wait()
		for r, snap := range got {
			if snap != got[0] || snap.Version() != uint64(round+1) {
				t.Fatalf("round %d: reader %d got v%d at %p, reader 0 v%d at %p",
					round, r, snap.Version(), snap, got[0].Version(), got[0])
			}
		}
	}
}

// A service that is read once and then only written must not keep that
// snapshot — and through it its base placement and every op chunk appended
// since — reachable for ever: the leader lets go of a handed-out snapshot
// once its epoch is over, and the next reader simply builds the current one.
func TestUnreadSnapshotIsReleased(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(50, 100), MaxBatch: 1})
	first := svc.Snapshot()
	if svc.handed.Load() != first {
		t.Fatal("the snapshot handed out is not the one remembered")
	}
	for i := 0; svc.ring.epoch == first.Epoch(); i++ {
		if i > 100*rebuildMinOps {
			t.Fatal("no base swap in an unread service")
		}
		if _, err := svc.Arrive(mkVM(i, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Depart(i); err != nil {
			t.Fatal(err)
		}
	}
	if held := svc.handed.Load(); held != nil {
		t.Errorf("snapshot v%d of epoch %d still held in epoch %d", held.Version(), held.Epoch(), svc.ring.epoch)
	}
	if p, err := first.Placement(); err != nil || p.NumVMs() != 0 {
		t.Errorf("the released snapshot no longer materialises its own (empty) version: %v", err)
	}
	if got, want := svc.Snapshot().Version(), svc.Stats().Version; got != want {
		t.Errorf("next read built version %d, want the current %d", got, want)
	}
}

// refOrder is the map-based relink order used before the scratch index: one
// id → arrival-positions list per commit, each ordered VM taking the first
// position of its id not yet taken.
func refOrder(strategy core.QueuingFFD, arrs []arrival) []arrival {
	if len(arrs) < 2 {
		return arrs
	}
	vms := make([]cloud.VM, len(arrs))
	for i, a := range arrs {
		vms[i] = a.vm
	}
	ordered, err := strategy.Order(vms)
	if err != nil {
		return arrs
	}
	byID := make(map[int][]int, len(arrs))
	for i, a := range arrs {
		byID[a.vm.ID] = append(byID[a.vm.ID], i)
	}
	out := make([]arrival, 0, len(arrs))
	for _, vm := range ordered {
		idxs := byID[vm.ID]
		out = append(out, arrs[idxs[0]])
		byID[vm.ID] = idxs[1:]
	}
	return out
}

// order relinks through scratch it reuses from commit to commit; it must pair
// every ordered VM with exactly the request the map-based relink would, also
// when ids repeat across the batch (each repeat goes to the next request of
// that id in arrival order). One service runs every case in turn, so stale
// scratch from a larger batch is part of what is tested.
func TestOrderMatchesMapRelink(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spec := func(id int) cloud.VM { return mkVM(id, 1+20*rng.Float64(), 1+10*rng.Float64()) }
	cases := map[string][]cloud.VM{
		"no arrival":        nil,
		"one arrival":       {spec(7)},
		"two, same id":      {spec(3), spec(3)},
		"all-equal specs":   {mkVM(5, 4, 2), mkVM(1, 4, 2), mkVM(9, 4, 2), mkVM(1, 4, 2), mkVM(0, 4, 2)},
		"one id throughout": {spec(2), spec(2), spec(2), spec(2), spec(2), spec(2)},
	}
	var random, repeats []cloud.VM
	for i := 0; i < 300; i++ {
		random = append(random, spec(rng.Intn(1_000_000)))
		repeats = append(repeats, spec(rng.Intn(12)))
	}
	cases["random ids"], cases["twelve ids, 300 arrivals"] = random, repeats

	for _, method := range []core.ClusterMethod{core.ClusterRangeBuckets, core.ClusterNone} {
		strategy := paperStrategy()
		strategy.Method = method
		svc := newServiceT(t, Config{Strategy: strategy})
		for _, name := range []string{"random ids", "twelve ids, 300 arrivals", "no arrival", "one arrival",
			"two, same id", "all-equal specs", "one id throughout", "random ids"} {
			arrs := make([]arrival, len(cases[name]))
			for i, vm := range cases[name] {
				arrs[i] = arrival{vm: vm, req: &request{}} // a request of its own: pointer identity names the position
			}
			got, want := svc.order(arrs), refOrder(strategy, arrs)
			if len(got) != len(want) {
				t.Fatalf("method %d, %s: ordered %d arrivals, reference %d", method, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("method %d, %s: position %d is VM %d of request %p, reference VM %d of %p",
						method, name, i, got[i].vm.ID, got[i].req, want[i].vm.ID, want[i].req)
				}
			}
		}
	}
}

// A refused single arrival reaches its caller with the text core.Online.Arrive
// gives it, although the commit never calls Arrive (it gets a bare refusal
// from TryArrive and place formats the error on the caller's side).
func TestRefusalErrorMatchesOnline(t *testing.T) {
	pms := mkPool(1, 10)
	svc := newServiceT(t, Config{PMs: pms, MaxBatch: 1})
	seq, err := core.NewOnline(paperStrategy(), pms, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	big := mkVM(42, 50, 5)
	_, errSvc := svc.Arrive(big)
	_, errSeq := seq.Arrive(big)
	if errSvc == nil || errSeq == nil || errSvc.Error() != errSeq.Error() {
		t.Errorf("service refused with %q, sequential Online with %q", errSvc, errSeq)
	}
	if _, errMig := svc.ArriveMigrated(big); errMig == nil || errMig.Error() != errSeq.Error() {
		t.Errorf("migrated arrival refused with %q, want %q", errMig, errSeq)
	}
	if st := svc.Stats(); st.Rejected != 1 {
		t.Errorf("Rejected = %d after one client refusal and one migration refusal, want 1", st.Rejected)
	}
}
