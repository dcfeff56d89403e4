package placesvc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/queuing"
	"repro/internal/telemetry"
)

func paperStrategy() core.QueuingFFD {
	return core.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
}

func mkVM(id int, rb, re float64) cloud.VM {
	return cloud.VM{ID: id, POn: 0.01, POff: 0.09, Rb: rb, Re: re}
}

func mkPool(n int, capacity float64) []cloud.PM {
	pms := make([]cloud.PM, n)
	for i := range pms {
		pms[i] = cloud.PM{ID: i, Capacity: capacity}
	}
	return pms
}

func newServiceT(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Strategy.MaxVMsPerPM == 0 {
		cfg.Strategy = paperStrategy()
	}
	if cfg.PMs == nil {
		cfg.PMs = mkPool(50, 100)
	}
	if cfg.POn == 0 {
		cfg.POn, cfg.POff = 0.01, 0.09
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{PMs: mkPool(1, 100), POn: 0.01, POff: 0.09}); err == nil {
		t.Error("missing MaxVMsPerPM accepted")
	}
	if _, err := New(Config{Strategy: paperStrategy(), PMs: mkPool(1, 100), POn: 0.01, POff: 0.09, MaxBatch: -1}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
	if _, err := New(Config{Strategy: paperStrategy(), PMs: mkPool(1, 100), POn: 0.01, POff: 0.09, MaxWait: -time.Second}); err == nil {
		t.Error("negative MaxWait accepted")
	}
}

// The MaxBatch = 1 ≡ sequential-Online equivalence contract: a fixed request
// arrival order submitted by a single client through a MaxBatch = 1 service
// must reproduce the sequential core.Online placement bit-identically — the
// same PM id for every arrival, the same error classification, the same
// final placement. Same contract style as TestPlacerEquivalence and
// TestShardCountInvariance.
func TestServeEquivalenceMaxBatch1(t *testing.T) {
	// placer=0 is the placement index, the service's one placement path.
	t.Run("placer=0", func(t *testing.T) {
		strategy := paperStrategy()
		pms := mkPool(20, 100)
		svc := newServiceT(t, Config{Strategy: strategy, PMs: pms, MaxBatch: 1})
		seq, err := core.NewOnline(strategy, pms, 0.01, 0.09)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(77))
		live := []int{}
		for step := 0; step < 400; step++ {
			switch {
			case rng.Float64() < 0.25 && len(live) > 0:
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				errSvc := svc.Depart(id)
				errSeq := seq.Depart(id)
				if (errSvc == nil) != (errSeq == nil) {
					t.Fatalf("step %d: depart(%d) svc err %v, seq err %v", step, id, errSvc, errSeq)
				}
			default:
				vm := mkVM(step, 2+30*rng.Float64(), 2+18*rng.Float64())
				pmSvc, errSvc := svc.Arrive(vm)
				pmSeq, errSeq := seq.Arrive(vm)
				if (errSvc == nil) != (errSeq == nil) {
					t.Fatalf("step %d: arrive(%d) svc err %v, seq err %v", step, vm.ID, errSvc, errSeq)
				}
				if errSvc != nil {
					if !errors.Is(errSvc, cloud.ErrNoCapacity) || !errors.Is(errSeq, cloud.ErrNoCapacity) {
						t.Fatalf("step %d: rejection not ErrNoCapacity: svc %v, seq %v", step, errSvc, errSeq)
					}
					continue
				}
				if pmSvc != pmSeq {
					t.Fatalf("step %d: VM %d placed on PM %d by service, PM %d by sequential Online", step, vm.ID, pmSvc, pmSeq)
				}
				live = append(live, vm.ID)
			}
		}

		got, err := svc.Snapshot().Placement()
		if err != nil {
			t.Fatal(err)
		}
		assertSamePlacement(t, got, seq.Placement())
	})
}

// ArriveBatch through a MaxBatch = 1 service matches Online.ArriveBatch:
// same unplaced set, same final placement.
func TestServeBatchEquivalence(t *testing.T) {
	strategy := paperStrategy()
	pms := mkPool(3, 60)
	svc := newServiceT(t, Config{Strategy: strategy, PMs: pms, MaxBatch: 1})
	seq, err := core.NewOnline(strategy, pms, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]cloud.VM, 24)
	for i := range batch {
		batch[i] = mkVM(i, 2+18*rng.Float64(), 2+18*rng.Float64())
	}
	unSvc, err := svc.ArriveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	unSeq, err := seq.ArriveBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(unSvc) != len(unSeq) {
		t.Fatalf("service left %d unplaced, sequential %d", len(unSvc), len(unSeq))
	}
	for i := range unSvc {
		if unSvc[i].ID != unSeq[i].ID {
			t.Errorf("unplaced[%d]: id %d vs %d", i, unSvc[i].ID, unSeq[i].ID)
		}
	}
	got, err := svc.Snapshot().Placement()
	if err != nil {
		t.Fatal(err)
	}
	assertSamePlacement(t, got, seq.Placement())
}

func assertSamePlacement(t *testing.T, got, want *cloud.Placement) {
	t.Helper()
	if got.NumVMs() != want.NumVMs() {
		t.Fatalf("placement holds %d VMs, want %d", got.NumVMs(), want.NumVMs())
	}
	for _, vm := range want.VMs() {
		wantPM, _ := want.PMOf(vm.ID)
		gotPM, ok := got.PMOf(vm.ID)
		if !ok || gotPM != wantPM {
			t.Fatalf("VM %d on PM %d (ok=%v), want PM %d", vm.ID, gotPM, ok, wantPM)
		}
	}
}

// ArriveBatch keeps the Online contract after the PR-5 bugfix: a real error
// (duplicate VM id failing Assign) aborts the batch instead of landing the
// VM in unplaced.
func TestServeBatchAbortsOnRealError(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 1})
	if _, err := svc.Arrive(mkVM(7, 10, 5)); err != nil {
		t.Fatal(err)
	}
	unplaced, err := svc.ArriveBatch([]cloud.VM{mkVM(1, 10, 5), mkVM(7, 10, 5)})
	if err == nil {
		t.Fatal("batch with duplicate VM id did not abort")
	}
	if errors.Is(err, cloud.ErrNoCapacity) {
		t.Errorf("abort error %v wrongly wraps ErrNoCapacity", err)
	}
	if unplaced != nil {
		t.Errorf("aborted batch returned unplaced = %v", unplaced)
	}
}

// Concurrent clients hammering arrivals, departures, refreshes and snapshot
// reads: every committed state satisfies Eq. (17), every Arrive response
// names a PM that really hosts the VM at some subsequent snapshot, and the
// final fleet reconciles with the per-client accounting. Run under -race in
// CI (make race).
func TestServeConcurrentChurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newServiceT(t, Config{PMs: mkPool(100, 100), MaxBatch: 32, Registry: reg})
	const clients = 8
	const opsPerClient = 150

	var wg sync.WaitGroup
	placedCounts := make([]int, clients)
	departedCounts := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			mine := []int{}
			for i := 0; i < opsPerClient; i++ {
				if rng.Float64() < 0.3 && len(mine) > 0 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := svc.Depart(id); err != nil {
						t.Errorf("client %d: depart(%d): %v", c, id, err)
						return
					}
					departedCounts[c]++
					continue
				}
				id := c*100000 + i
				vm := mkVM(id, 2+18*rng.Float64(), 2+18*rng.Float64())
				pmID, err := svc.Arrive(vm)
				if err != nil {
					if !errors.Is(err, cloud.ErrNoCapacity) {
						t.Errorf("client %d: arrive(%d): %v", c, id, err)
						return
					}
					continue
				}
				if pmID < 0 || pmID >= 100 {
					t.Errorf("client %d: VM %d placed on out-of-pool PM %d", c, id, pmID)
					return
				}
				placedCounts[c]++
				mine = append(mine, id)
			}
		}(c)
	}
	// A monitoring reader racing the clients: snapshots must always be
	// internally consistent and never violate Eq. (17).
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := svc.Snapshot()
			p, err := snap.Placement()
			if err != nil {
				t.Errorf("snapshot materialisation: %v", err)
				return
			}
			if p.NumVMs() != snap.Stats().VMs {
				t.Errorf("snapshot v%d: placement holds %d VMs, stats say %d", snap.Version(), p.NumVMs(), snap.Stats().VMs)
				return
			}
			if v := cloud.CheckReserved(p, snap.Table()); v != nil {
				t.Errorf("snapshot v%d violates Eq. (17): %v", snap.Version(), v)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if err := svc.RefreshTable(); err != nil {
		t.Fatal(err)
	}
	wantLive := 0
	for c := 0; c < clients; c++ {
		wantLive += placedCounts[c] - departedCounts[c]
	}
	final := svc.Snapshot()
	if got := final.Stats().VMs; got != wantLive {
		t.Errorf("final fleet holds %d VMs, client accounting says %d", got, wantLive)
	}
	p, err := final.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if v := cloud.CheckReserved(p, final.Table()); v != nil {
		t.Errorf("final snapshot violates Eq. (17): %v", v)
	}
	if got := reg.Counter("placesvc_placements_total").Value(); got != uint64(wantLive)+uint64(sum(departedCounts)) {
		t.Errorf("placements counter = %d, want %d", got, wantLive+sum(departedCounts))
	}
	if got := reg.Counter("placesvc_commits_total").Value(); got == 0 || got != final.Stats().Commits {
		t.Errorf("commits counter = %d, stats say %d", got, final.Stats().Commits)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Group commit actually coalesces: a burst of requests enqueued while the
// committer is busy lands in fewer commits than requests.
func TestServeCoalesces(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(100, 100), MaxBatch: 64, MaxWait: 2 * time.Millisecond})
	const n = 128
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := svc.Arrive(mkVM(i, 5, 3)); err != nil {
				t.Errorf("arrive %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Requests != n {
		t.Fatalf("committed %d requests, want %d", st.Requests, n)
	}
	if st.Commits >= n {
		t.Errorf("%d commits for %d requests: no coalescing happened", st.Commits, n)
	}
	if st.Placed != n {
		t.Errorf("placed %d, want %d", st.Placed, n)
	}
}

// Snapshots are stable: a snapshot taken before further commits keeps
// reporting its own version and fleet, while the service moves on.
func TestSnapshotIsolation(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 1})
	if _, err := svc.Arrive(mkVM(1, 10, 5)); err != nil {
		t.Fatal(err)
	}
	old := svc.Snapshot()
	oldVersion := old.Version()
	for i := 2; i < 10; i++ {
		if _, err := svc.Arrive(mkVM(i, 10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	if old.Version() != oldVersion || old.Stats().VMs != 1 {
		t.Errorf("old snapshot drifted: version %d, VMs %d", old.Version(), old.Stats().VMs)
	}
	p, err := old.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVMs() != 1 {
		t.Errorf("old snapshot materialised %d VMs, want 1", p.NumVMs())
	}
	cur := svc.Snapshot()
	if cur.Stats().VMs != 9 {
		t.Errorf("current snapshot holds %d VMs, want 9", cur.Stats().VMs)
	}
	if cur.Version() <= oldVersion {
		t.Errorf("version did not advance: %d → %d", oldVersion, cur.Version())
	}
}

// The journal-rebuild path (base re-clone after the journal outgrows the
// fleet) keeps snapshots correct across many small commits and departures.
func TestSnapshotAfterJournalRebuild(t *testing.T) {
	svc := newServiceT(t, Config{PMs: mkPool(40, 100), MaxBatch: 1})
	rng := rand.New(rand.NewSource(3))
	live := []int{}
	for i := 0; i < 4*rebuildMinOps; i++ {
		if rng.Float64() < 0.45 && len(live) > 0 {
			j := rng.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			if err := svc.Depart(id); err != nil {
				t.Fatal(err)
			}
		} else {
			vm := mkVM(i, 2+8*rng.Float64(), 2+8*rng.Float64())
			if _, err := svc.Arrive(vm); err != nil {
				t.Fatal(err)
			}
			live = append(live, vm.ID)
		}
	}
	snap := svc.Snapshot()
	p, err := snap.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVMs() != len(live) {
		t.Fatalf("snapshot holds %d VMs, want %d", p.NumVMs(), len(live))
	}
	for _, id := range live {
		if _, ok := p.PMOf(id); !ok {
			t.Errorf("live VM %d missing from snapshot", id)
		}
	}
}

// RefreshTable goes through the shared table cache: concurrent refreshes of
// the same cohort across services solve once (counter-verified), and the
// resulting tables are the same instance.
func TestRefreshSharesTableCache(t *testing.T) {
	cache := queuing.NewTableCache()
	strategy := paperStrategy()
	strategy.Tables = cache
	mk := func() *Service {
		return newServiceT(t, Config{Strategy: strategy, PMs: mkPool(10, 100), MaxBatch: 4})
	}
	a, b := mk(), mk()
	if got := cache.Solves(); got != 1 {
		t.Fatalf("constructing two services performed %d table solves, want 1", got)
	}
	// Same homogeneous fleet on both → identical refresh cohort.
	for i := 0; i < 4; i++ {
		if _, err := a.Arrive(mkVM(i, 10, 5)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Arrive(mkVM(i, 10, 5)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc := a
			if i%2 == 1 {
				svc = b
			}
			if err := svc.RefreshTable(); err != nil {
				t.Errorf("refresh: %v", err)
			}
		}(i)
	}
	wg.Wait()
	// The fleet's rounded cohort (0.01, 0.09) equals the seed cohort, so
	// even the refreshes are cache hits: still exactly one solve.
	if got := cache.Solves(); got != 1 {
		t.Errorf("after concurrent refreshes the cache performed %d solves, want 1", got)
	}
	if a.Snapshot().Table() != b.Snapshot().Table() {
		t.Error("services hold distinct table instances for the same cohort")
	}
}

func TestServeClose(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 8})
	if _, err := svc.Arrive(mkVM(1, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := svc.Arrive(mkVM(2, 10, 5)); !errors.Is(err, ErrClosed) {
		t.Errorf("arrive after close: %v, want ErrClosed", err)
	}
	if err := svc.Depart(1); !errors.Is(err, ErrClosed) {
		t.Errorf("depart after close: %v, want ErrClosed", err)
	}
	if _, err := svc.ArriveBatch([]cloud.VM{mkVM(3, 1, 1)}); !errors.Is(err, ErrClosed) {
		t.Errorf("batch after close: %v, want ErrClosed", err)
	}
	if err := svc.RefreshTable(); !errors.Is(err, ErrClosed) {
		t.Errorf("refresh after close: %v, want ErrClosed", err)
	}
	// The last snapshot stays readable after close.
	if got := svc.Snapshot().Stats().VMs; got != 1 {
		t.Errorf("post-close snapshot holds %d VMs, want 1", got)
	}
}

// Depart errors (unknown id) surface to the caller without corrupting state.
func TestServeDepartUnknown(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 1})
	if err := svc.Depart(42); err == nil {
		t.Fatal("unknown depart accepted")
	}
	if _, err := svc.Arrive(mkVM(1, 10, 5)); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Departed; got != 0 {
		t.Errorf("failed depart counted: %d", got)
	}
}
