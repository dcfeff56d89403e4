package placesvc

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// TestServeEquivalenceNoOpPolicy extends the MaxBatch=1 ≡ sequential-Online
// contract across the admission layer: a service carrying an empty admission
// config (the no-op policy) and background contexts must reproduce the
// sequential core.Online placement bit-identically — the admission layer is
// invisible until a policy or a live context is actually in play.
func TestServeEquivalenceNoOpPolicy(t *testing.T) {
	strategy := paperStrategy()
	pms := mkPool(20, 100)
	svc := newServiceT(t, Config{Strategy: strategy, PMs: pms, MaxBatch: 1, Admission: &admission.Config{}})
	seq, err := core.NewOnline(strategy, pms, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	live := []int{}
	for step := 0; step < 400; step++ {
		switch {
		case rng.Float64() < 0.25 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			errSvc := svc.DepartCtx(ctx, id)
			errSeq := seq.Depart(id)
			if (errSvc == nil) != (errSeq == nil) {
				t.Fatalf("step %d: depart(%d) svc err %v, seq err %v", step, id, errSvc, errSeq)
			}
		default:
			vm := mkVM(step, 2+30*rng.Float64(), 2+18*rng.Float64())
			pmSvc, errSvc := svc.ArriveCtx(ctx, vm)
			pmSeq, errSeq := seq.Arrive(vm)
			if (errSvc == nil) != (errSeq == nil) {
				t.Fatalf("step %d: arrive(%d) svc err %v, seq err %v", step, vm.ID, errSvc, errSeq)
			}
			if errSvc != nil {
				if !errors.Is(errSvc, cloud.ErrNoCapacity) {
					t.Fatalf("step %d: rejection not ErrNoCapacity: %v", step, errSvc)
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
}

func TestArriveCtxAlreadyCancelled(t *testing.T) {
	svc := newServiceT(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.ArriveCtx(ctx, mkVM(1, 10, 5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := svc.DepartCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("depart err = %v, want context.Canceled", err)
	}
	if _, err := svc.ArriveBatchCtx(ctx, []cloud.VM{mkVM(2, 10, 5)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if got := svc.Stats().Placed; got != 0 {
		t.Fatalf("Placed = %d after cancelled submissions, want 0", got)
	}
}

// TestArriveCtxCancelWhileQueued pins the commit-skip contract: a waiter
// whose context fires while its request sits in the committer's collect
// window gets ctx.Err() back, and the request is skipped at commit time —
// never applied.
func TestArriveCtxCancelWhileQueued(t *testing.T) {
	// A long MaxWait parks the first request in the collect window, leaving
	// the waiter ample time to abandon it; Close (via Cleanup) ends the
	// window early, so the test does not pay the full wait.
	svc := newServiceT(t, Config{MaxBatch: 64, MaxWait: 30 * time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := svc.ArriveCtx(ctx, mkVM(1, 10, 5))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the committer pick the request up
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled waiter hung")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Placed != 0 {
		t.Fatalf("Placed = %d, want 0 — the abandoned request was applied", st.Placed)
	}
}

// TestDeadlineFromConfig checks the per-class default deadlines: with a
// 20ms standard deadline and a committer parked in a long collect window,
// a plain Arrive times out with context.DeadlineExceeded and is never
// applied, while a critical-class arrival (deadline 0 = none) commits.
func TestDeadlineFromConfig(t *testing.T) {
	svc := newServiceT(t, Config{
		MaxBatch:  64,
		MaxWait:   30 * time.Second,
		Admission: &admission.Config{Deadlines: &admission.DeadlineConfig{StandardMs: 20}},
	})
	if _, err := svc.Arrive(mkVM(1, 10, 5)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// A context with its own (longer) deadline overrides the class default.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := svc.ArriveCtx(ctx, mkVM(2, 10, 5))
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("caller deadline ignored: returned early with %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := svc.Close(); err != nil { // drains: the queued arrival commits
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("queued arrival after Close: %v", err)
	}
	if st := svc.Stats(); st.Placed != 1 {
		t.Fatalf("Placed = %d, want exactly the non-expired arrival", st.Placed)
	}
}

func TestAdmissionShedTokenBucket(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newServiceT(t, Config{
		Registry:  reg,
		Admission: &admission.Config{TokenBucket: &admission.TokenBucketConfig{Capacity: 1, RefillPerSec: 1e-9}},
	})
	if _, err := svc.Arrive(mkVM(1, 10, 5)); err != nil {
		t.Fatalf("first arrival: %v", err)
	}
	_, err := svc.Arrive(mkVM(2, 10, 5))
	if !errors.Is(err, admission.ErrShed) {
		t.Fatalf("err = %v, want admission.ErrShed", err)
	}
	if errors.Is(err, cloud.ErrNoCapacity) {
		t.Fatalf("shed error %v must not wrap ErrNoCapacity", err)
	}
	// Critical bypasses the bucket by default.
	if _, err := svc.ArriveClass(context.Background(), mkVM(3, 10, 5), admission.ClassCritical); err != nil {
		t.Fatalf("critical arrival: %v", err)
	}
	// A shed batch is charged whole and rejected before it queues.
	if _, err := svc.ArriveBatch([]cloud.VM{mkVM(4, 10, 5), mkVM(5, 10, 5)}); !errors.Is(err, admission.ErrShed) {
		t.Fatalf("batch err = %v, want admission.ErrShed", err)
	}

	shedStd := reg.Counter(telemetry.WithLabels("admission_sheds_total", "policy", "token_bucket", "class", "standard"))
	if got := shedStd.Value(); got != 3 { // 1 single + 2 batch VMs
		t.Fatalf("admission_sheds_total{standard} = %d, want 3", got)
	}
	if got := reg.Gauge("admission_shed_rate_ewma").Value(); got <= 0 {
		t.Fatalf("admission_shed_rate_ewma = %v, want > 0 after sheds", got)
	}
	if st := svc.Stats(); st.Placed != 2 || st.Rejected != 0 {
		t.Fatalf("stats = %+v — sheds must never reach the committer", st)
	}
}

func TestAdmissionOccupancyShed(t *testing.T) {
	strategy := paperStrategy()
	strategy.MaxVMsPerPM = 2 // 2 PMs × 2 slots: occupancy quantum 0.25
	svc := newServiceT(t, Config{
		Strategy: strategy,
		PMs:      mkPool(2, 1000),
		Admission: &admission.Config{
			Occupancy: &admission.OccupancyConfig{ShedAbove: 0.5, ResumeBelow: 0.25},
		},
	})
	for id := 0; id < 2; id++ {
		if _, err := svc.Arrive(mkVM(id, 5, 2)); err != nil {
			t.Fatalf("arrival %d: %v", id, err)
		}
	}
	// Occupancy is now 2/4 = 0.5 ≥ shed_above: standard arrivals shed.
	if _, err := svc.Arrive(mkVM(2, 5, 2)); !errors.Is(err, admission.ErrShed) {
		t.Fatalf("err at occupancy 0.5 = %v, want admission.ErrShed", err)
	}
	// Departures are never shed and free the fleet back below resume_below.
	for id := 0; id < 2; id++ {
		if err := svc.Depart(id); err != nil {
			t.Fatalf("depart %d: %v", id, err)
		}
	}
	if _, err := svc.Arrive(mkVM(3, 5, 2)); err != nil {
		t.Fatalf("arrival after drain: %v — hysteresis did not resume", err)
	}
}

// TestCloseDuringNoCapacityStorm is the Close-drain regression test: while a
// saturated fleet storms ErrNoCapacity across many clients — some with live
// contexts — Close must leave every waiter with a definitive answer
// (placement, ErrNoCapacity, ErrClosed, or its own ctx error), never a hang.
func TestCloseDuringNoCapacityStorm(t *testing.T) {
	strategy := paperStrategy()
	strategy.MaxVMsPerPM = 1
	svc := newServiceT(t, Config{Strategy: strategy, PMs: mkPool(1, 100)})
	if _, err := svc.Arrive(mkVM(0, 10, 5)); err != nil {
		t.Fatal(err)
	}

	const clients = 24
	var wg sync.WaitGroup
	start := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for i := 0; ; i++ {
				var err error
				if c%2 == 0 {
					_, err = svc.Arrive(mkVM(1000+c*10000+i, 10, 5))
				} else {
					_, err = svc.ArriveCtx(ctx, mkVM(1000+c*10000+i, 10, 5))
				}
				switch {
				case err == nil, errors.Is(err, cloud.ErrNoCapacity):
					// Storm continues; keep hammering until the service closes.
				case errors.Is(err, ErrClosed), errors.Is(err, context.DeadlineExceeded):
					return
				default:
					t.Errorf("client %d: indefinitive answer %v", c, err)
					return
				}
				if i == 0 {
					select {
					case <-start:
					default:
						close(start)
					}
				}
			}
		}(c)
	}
	<-start                          // storm confirmed in flight
	time.Sleep(5 * time.Millisecond) // let the queue fill mid-storm
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("waiters hung across Close during an ErrNoCapacity storm")
	}
}

// TestDuplicateArriveRacesDepartBatch drives duplicate-id arrivals against a
// DepartBatch of the same ids so that, under MaxWait coalescing, all three
// requests land in one commit and exercise order()'s per-id FIFO re-link.
// Outcomes are interleaving-dependent; the invariants are: no hang, every
// error classified, and the id placed at most once afterwards. Run with
// -race (make race) for the data-race coverage this exists for.
func TestDuplicateArriveRacesDepartBatch(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 64, MaxWait: 10 * time.Millisecond})
	const id = 7
	for round := 0; round < 20; round++ {
		if _, err := svc.Arrive(mkVM(id, 10, 5)); err != nil {
			t.Fatalf("round %d: seed arrival: %v", round, err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 3)
		oks := make([]bool, 2)
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				_, err := svc.Arrive(mkVM(id, 10, 5))
				errs[g] = err
				oks[g] = err == nil
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			missing, err := svc.DepartBatch([]int{id, id})
			errs[2] = err
			if err == nil && len(missing) == 2 {
				// Both ids missing means the VM was not placed at all —
				// impossible, the seed arrival committed first.
				t.Errorf("round %d: DepartBatch found the seeded VM missing twice", round)
			}
		}()
		wg.Wait()
		for i, err := range errs {
			if err != nil && errors.Is(err, cloud.ErrNoCapacity) {
				t.Fatalf("round %d: request %d rejected for capacity in an uncontended fleet: %v", round, i, err)
			}
		}
		// Reconcile: leave the fleet empty for the next round.
		if err := svc.Depart(id); err != nil {
			// Not placed now — every arrival either failed or was departed.
			if oks[0] && oks[1] {
				t.Fatalf("round %d: both duplicate arrivals reported success yet VM absent", round)
			}
		} else if svcStats := svc.Stats(); svcStats.VMs != 0 {
			t.Fatalf("round %d: fleet not empty after reconcile: %+v", round, svcStats)
		}
	}
}

// TestAdmissionConfigValidationAtNew ensures a bad policy config fails
// service construction instead of silently admitting everything.
func TestAdmissionConfigValidationAtNew(t *testing.T) {
	_, err := New(Config{
		Strategy:  paperStrategy(),
		PMs:       mkPool(1, 100),
		POn:       0.01,
		POff:      0.09,
		Admission: &admission.Config{TokenBucket: &admission.TokenBucketConfig{Capacity: 0, RefillPerSec: 1}},
	})
	if err == nil {
		t.Fatal("invalid admission config accepted")
	}
}

// TestShedDecisionsDeterministic pins the shed-determinism contract at the
// service level: two services compiled from the same policy config, fed the
// same single-client sequence with the same virtual occupancy trajectory,
// shed the same requests. (Wall-clock token buckets are excluded here — the
// occupancy gate is the clockless policy — the policy-layer determinism test
// in internal/admission covers timestamped replay.)
func TestShedDecisionsDeterministic(t *testing.T) {
	run := func() []bool {
		strategy := paperStrategy()
		strategy.MaxVMsPerPM = 2
		svc := newServiceT(t, Config{
			Strategy: strategy,
			PMs:      mkPool(4, 1000),
			Admission: &admission.Config{
				Occupancy: &admission.OccupancyConfig{ShedAbove: 0.5, ResumeBelow: 0.25},
			},
		})
		rng := rand.New(rand.NewSource(13))
		live := []int{}
		var decisions []bool
		for step := 0; step < 300; step++ {
			if rng.Float64() < 0.4 && len(live) > 0 {
				i := rng.Intn(len(live))
				if err := svc.Depart(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			_, err := svc.Arrive(mkVM(step, 5, 2))
			shed := errors.Is(err, admission.ErrShed)
			if err != nil && !shed {
				t.Fatalf("step %d: %v", step, err)
			}
			if err == nil {
				live = append(live, step)
			}
			decisions = append(decisions, shed)
		}
		return decisions
	}
	a, b := run(), run()
	sheds := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across identical runs", i)
		}
		if a[i] {
			sheds++
		}
	}
	if sheds == 0 {
		t.Fatal("trajectory never shed — determinism check vacuous")
	}
}

// TestArriveMigratedBypassesAdmission pins the internal migration path's
// contract: ArriveMigrated ignores the admission policy entirely — it is the
// re-arrival half of a shard-to-shard move, already-admitted capacity that a
// shed would evict — and stays out of client-stream accounting: a
// capacity-refused migration returns ErrNoCapacity without counting toward
// Stats.Rejected (the migration layer keeps its own failure tally).
func TestArriveMigratedBypassesAdmission(t *testing.T) {
	svc := newServiceT(t, Config{
		PMs: mkPool(1, 1000),
		Admission: &admission.Config{
			Occupancy: &admission.OccupancyConfig{ShedAbove: 0.1, ResumeBelow: 0.05},
		},
	})
	// Two critical arrivals ride through the gate (ShedCritical off) and push
	// occupancy to 2/16 = 0.125 — past ShedAbove, arming it.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := svc.ArriveClass(ctx, mkVM(i, 1, 1), admission.ClassCritical); err != nil {
			t.Fatalf("critical fill %d: %v", i, err)
		}
	}
	if _, err := svc.Arrive(mkVM(100, 1, 1)); !errors.Is(err, admission.ErrShed) {
		t.Fatalf("standard arrival err = %v, want ErrShed", err)
	}
	// Migrations land regardless of the armed gate, all the way to capacity.
	for i := 2; i < 16; i++ {
		if _, err := svc.ArriveMigrated(mkVM(i, 1, 1)); err != nil {
			t.Fatalf("migration %d: %v", i, err)
		}
	}
	// The pool is full: one more migration is refused on capacity — a real
	// ErrNoCapacity to its caller, invisible to the rejection counters.
	if _, err := svc.ArriveMigrated(mkVM(200, 1, 1)); !errors.Is(err, cloud.ErrNoCapacity) {
		t.Fatalf("migration into full pool err = %v, want ErrNoCapacity", err)
	}
	st := svc.Stats()
	if st.VMs != 16 {
		t.Fatalf("fleet holds %d VMs, want 16", st.VMs)
	}
	if st.Rejected != 0 {
		t.Fatalf("Stats.Rejected = %d after a refused migration, want 0", st.Rejected)
	}
	if st.Placed != 16 {
		t.Fatalf("Stats.Placed = %d, want 16", st.Placed)
	}
}
