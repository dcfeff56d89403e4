package placesvc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cloud"
)

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// holdLeader makes the test itself the leader of an idle service, so every
// call made afterwards queues as a follower until the test elects one.
func holdLeader(t *testing.T, svc *Service) {
	t.Helper()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	if svc.leading || len(svc.queue) != 0 {
		t.Fatal("service not idle")
	}
	svc.leading = true
}

// electNext retires the test's held leadership the way lead does: elect under
// mu, and hand the caller the successor to wake (nil when none was wanted).
func electNext(svc *Service) *request {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.elect()
}

// TestLeaderFollowerStress drives the group-commit protocol from 32 goroutines
// with every request kind, random cancellations and a Close in mid-flight, at
// both ends of the MaxBatch and MaxWait ranges. Every call must return exactly
// once with a definitive outcome, the clients' books must equal the service's,
// and a concurrent reader must see versions advance by exactly 1 per commit.
func TestLeaderFollowerStress(t *testing.T) {
	for _, maxBatch := range []int{1, 4, 256} {
		for _, maxWait := range []time.Duration{0, 200 * time.Microsecond} {
			t.Run(fmt.Sprintf("batch=%d/wait=%v", maxBatch, maxWait), func(t *testing.T) {
				stressLeaderFollower(t, maxBatch, maxWait)
			})
		}
	}
}

func stressLeaderFollower(t *testing.T, maxBatch int, maxWait time.Duration) {
	const (
		clients   = 32
		closeWhen = 3000 // calls completed before Close; clients run until it
	)
	// ~8 VMs fit a PM, so the 50 PMs fill up and Eq. (17) refusals occur.
	svc := newServiceT(t, Config{MaxBatch: maxBatch, MaxWait: maxWait})

	var submitted, placed, rejected, cancelled, closed, departed, completed atomic.Int64
	var mu sync.Mutex
	placedOn := map[int]int{} // live VM → the PM its caller was told
	gone := map[int]bool{}    // VMs whose caller was told "not applied"
	outcome := func(vm cloud.VM, pmID int, err error) {
		switch {
		case err == nil:
			placed.Add(1)
			mu.Lock()
			placedOn[vm.ID] = pmID
			mu.Unlock()
			return
		case errors.Is(err, cloud.ErrNoCapacity):
			rejected.Add(1)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			cancelled.Add(1)
		case errors.Is(err, ErrClosed):
			closed.Add(1)
		default:
			t.Errorf("VM %d: indefinite answer %v", vm.ID, err)
		}
		mu.Lock()
		gone[vm.ID] = true
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)*7919 + int64(maxBatch)))
			var mine []int // VMs this client placed and has not departed
			nextID := c * 1_000_000
			newVM := func() cloud.VM {
				nextID++
				submitted.Add(1)
				return mkVM(nextID, 10, 5)
			}
			sealed := false // this client has been told ErrClosed
			seen := func(err error) { sealed = sealed || errors.Is(err, ErrClosed) }
			for !sealed {
				switch p := rng.Float64(); {
				case p < 0.30:
					vm := newVM()
					pmID, err := svc.Arrive(vm)
					seen(err)
					if outcome(vm, pmID, err); err == nil {
						mine = append(mine, vm.ID)
					}
				case p < 0.55:
					ctx, cancel := context.WithCancel(context.Background())
					switch rng.Intn(3) {
					case 0:
						cancel() // dead on arrival
					case 1:
						time.AfterFunc(time.Duration(rng.Intn(60))*time.Microsecond, cancel)
					}
					vm := newVM()
					pmID, err := svc.ArriveCtx(ctx, vm)
					cancel()
					seen(err)
					if outcome(vm, pmID, err); err == nil {
						mine = append(mine, vm.ID)
					}
				case p < 0.80 && len(mine) > 0:
					j := rng.Intn(len(mine))
					id := mine[j]
					mine = append(mine[:j], mine[j+1:]...)
					err := svc.Depart(id)
					seen(err)
					if err == nil {
						departed.Add(1)
						mu.Lock()
						delete(placedOn, id)
						mu.Unlock()
					} else if !sealed {
						t.Errorf("depart of placed VM %d: %v", id, err)
					}
				case p < 0.95:
					vms := []cloud.VM{newVM(), newVM(), newVM()}
					unplaced, err := svc.ArriveBatch(vms)
					seen(err)
					if err != nil {
						for _, vm := range vms {
							outcome(vm, 0, err)
						}
						break
					}
					refused := map[int]bool{}
					for _, vm := range unplaced {
						refused[vm.ID] = true
						outcome(vm, 0, cloud.ErrNoCapacity)
					}
					for _, vm := range vms {
						if !refused[vm.ID] {
							placed.Add(1) // PM unknown to the caller: checked via Stats only
							mine = append(mine, vm.ID)
						}
					}
				default:
					// An empty fleet has no switch probabilities to refresh
					// from, so only a hang or a panic is a failure here.
					seen(svc.RefreshTable())
				}
				completed.Add(1)
			}
		}(c)
	}

	// The concurrent reader: every published snapshot it catches must be newer
	// than the last one by version, and version must count commits.
	stopReader := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		prev := svc.Snapshot()
		for {
			select {
			case <-stopReader:
				return
			default:
			}
			snap := svc.Snapshot()
			if st := snap.Stats(); st.Version != st.Commits {
				t.Errorf("snapshot version %d after %d commits", st.Version, st.Commits)
				return
			}
			if snap != prev && snap.Version() <= prev.Version() {
				t.Errorf("snapshot version went %d → %d", prev.Version(), snap.Version())
				return
			}
			prev = snap
			runtime.Gosched()
		}
	}()

	waitFor(t, "the calls before Close", func() bool { return completed.Load() >= closeWhen })
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	atClose := svc.Stats()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("callers hung across Close")
	}
	close(stopReader)
	<-readerDone

	t.Logf("%d VMs submitted: %d placed, %d rejected, %d cancelled, %d closed out; %d departed, %d commits",
		submitted.Load(), placed.Load(), rejected.Load(), cancelled.Load(), closed.Load(), departed.Load(), atClose.Commits)
	if sum := placed.Load() + rejected.Load() + cancelled.Load() + closed.Load(); sum != submitted.Load() {
		t.Errorf("submitted %d VMs but placed %d + rejected %d + cancelled %d + closed %d = %d",
			submitted.Load(), placed.Load(), rejected.Load(), cancelled.Load(), closed.Load(), sum)
	}
	st := svc.Stats()
	if st != atClose {
		t.Errorf("stats moved after Close returned: %+v → %+v", atClose, st)
	}
	if int64(st.Placed) != placed.Load() || int64(st.Rejected) != rejected.Load() || int64(st.Departed) != departed.Load() {
		t.Errorf("service counted placed %d rejected %d departed %d, clients %d %d %d",
			st.Placed, st.Rejected, st.Departed, placed.Load(), rejected.Load(), departed.Load())
	}
	if want := placed.Load() - departed.Load(); int64(st.VMs) != want {
		t.Errorf("fleet holds %d VMs, want placed − departed = %d", st.VMs, want)
	}
	snap := svc.Snapshot()
	p, err := snap.Placement()
	if err != nil {
		t.Fatal(err)
	}
	if v := cloud.CheckReserved(p, snap.Table()); len(v) != 0 {
		t.Errorf("Eq. (17) violated on %d PMs: %+v", len(v), v[0])
	}
	for id, want := range placedOn {
		if got, ok := p.PMOf(id); !ok || got != want {
			t.Errorf("VM %d: caller was told PM %d, placement says %d (present %v)", id, want, got, ok)
		}
	}
	for id := range gone {
		if _, ok := p.PMOf(id); ok {
			t.Errorf("VM %d was refused, cancelled or closed out, yet is placed", id)
		}
	}
	if svc.QueueDepth() != 0 {
		t.Errorf("queue depth %d after drain", svc.QueueDepth())
	}
}

// TestElectedLeaderWithExpiredCtx pins the no-lost-wake-up half of the
// election: a request is claimed when it is elected, so its waiter leads —
// and commits itself and the queue behind it — even though its context
// expired before the election's wake reached it.
func TestElectedLeaderWithExpiredCtx(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 1})
	holdLeader(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 2)
	go func() {
		_, err := svc.ArriveCtx(ctx, mkVM(1, 10, 5))
		errs <- err
	}()
	waitFor(t, "the cancellable follower to queue", func() bool { return svc.QueueDepth() == 1 })
	go func() {
		_, err := svc.Arrive(mkVM(2, 10, 5))
		errs <- err
	}()
	waitFor(t, "the second follower to queue", func() bool { return svc.QueueDepth() == 2 })

	next := electNext(svc)
	if next == nil || next.vm.ID != 1 || !next.lead {
		t.Fatalf("elected %+v, want the queue head (VM 1) marked lead", next)
	}
	cancel()                          // fires after the claim, before the wake
	time.Sleep(10 * time.Millisecond) // let the waiter lose its CAS first
	next.done <- struct{}{}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Errorf("caller %d: %v, want its placement — a claimed request commits", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("lost wake-up: the queue behind an expired elected leader never committed")
		}
	}
	if err := svc.Close(); err != nil { // returns only once the last leader retired
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Placed != 2 || st.Commits != 2 {
		t.Fatalf("stats %+v, want 2 VMs placed in 2 commits", st)
	}
}

// TestElectionSkipsAbandonedHead: a request whose waiter gave up while queued
// is skipped by the election — never applied, never woken — and handed to the
// pool exactly once; the request behind it is elected instead.
func TestElectionSkipsAbandonedHead(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 1})
	holdLeader(t, svc)
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := svc.ArriveCtx(ctx, mkVM(1, 10, 5))
		abandoned <- err
	}()
	waitFor(t, "the cancellable follower to queue", func() bool { return svc.QueueDepth() == 1 })
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}
	placedc := make(chan error, 1)
	go func() {
		_, err := svc.Arrive(mkVM(2, 10, 5))
		placedc <- err
	}()
	waitFor(t, "the second follower to queue behind the abandoned one", func() bool { return svc.QueueDepth() == 2 })
	svc.mu.Lock()
	ghost := svc.queue[0]
	svc.mu.Unlock()

	next := electNext(svc)
	if next == nil || next == ghost || next.vm.ID != 2 {
		t.Fatalf("elected %+v, want VM 2's request", next)
	}
	if svc.QueueDepth() != 0 {
		t.Errorf("queue depth %d after the election, want 0", svc.QueueDepth())
	}
	next.done <- struct{}{}
	if err := <-placedc; err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Placed != 1 || st.Requests != 1 {
		t.Fatalf("stats %+v, want exactly VM 2 committed", st)
	}
	// Pooled exactly once: a second put would let two callers share the
	// request. (The pool may legitimately have dropped it: zero is fine.)
	pooled := 0
	for i := 0; i < 64; i++ {
		if svc.pool.Get().(*request) == ghost {
			pooled++
		}
	}
	if pooled > 1 {
		t.Fatalf("abandoned request found in the pool %d times", pooled)
	}
}

// TestCloseEndsFillWindow: Close must not wait out MaxWait. It ends the
// leader's window, everything queued before it commits, and later calls fail.
func TestCloseEndsFillWindow(t *testing.T) {
	svc := newServiceT(t, Config{MaxBatch: 64, MaxWait: time.Hour})
	errs := make(chan error, 2)
	arrive := func(id int) {
		_, err := svc.Arrive(mkVM(id, 10, 5))
		errs <- err
	}
	go arrive(1)
	waitFor(t, "the first caller to lead", func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return svc.leading
	})
	go arrive(2)
	waitFor(t, "the second caller to queue", func() bool { return svc.QueueDepth() == 1 })
	closed := make(chan error, 1)
	go func() { closed <- svc.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited out the fill window")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("request queued before Close: %v", err)
		}
	}
	if st := svc.Stats(); st.Placed != 2 || st.Commits != 1 {
		t.Errorf("stats %+v, want both VMs in the one drained commit", st)
	}
	if _, err := svc.Arrive(mkVM(3, 10, 5)); !errors.Is(err, ErrClosed) {
		t.Errorf("arrival after Close: %v, want ErrClosed", err)
	}
}

// TestServiceOwnsNoGoroutine: commits run on callers' goroutines, so New
// starts none and a closed service leaves none behind.
func TestServiceOwnsNoGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	svc := newServiceT(t, Config{MaxBatch: 8})
	if got := runtime.NumGoroutine(); got > baseline {
		t.Fatalf("New started %d goroutine(s)", got-baseline)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := c*1000 + i
				if _, err := svc.Arrive(mkVM(id, 1, 1)); err != nil {
					t.Error(err)
					return
				}
				if err := svc.Depart(id); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the goroutine count to return to its baseline", func() bool { return runtime.NumGoroutine() <= baseline })
}
