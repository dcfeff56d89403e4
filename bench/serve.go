package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/placesvc"
	"repro/internal/shardsvc"
)

var epoch = time.Now()

// nanos is the benchmark's monotonic clock.
func nanos() int64 { return int64(time.Since(epoch)) }

// recorder holds, index-aligned with the op slice it was sized for, what each
// call returned and how long the arrival calls took. Everything is allocated
// before the clock starts; the replay loops only store into it.
type recorder struct {
	lat      []int64      // arrival call latency, ns (0 for departures)
	pm       []int32      // arrive: returned PM id, -1 = refused
	unplaced [][]cloud.VM // arrive batch: returned unplaced VMs
	missing  []int32      // depart batch: len(missing) returned
	spans    [][2]int64   // traced runs only: call start/end of every op
}

// newRecorder sizes a recorder for n ops of s. The batch columns exist only
// for batch scripts: on the others they would be megabytes of pointers for
// the measured process's GC to scan.
func newRecorder(s *script, n int, traced bool) *recorder {
	r := &recorder{lat: make([]int64, n), pm: make([]int32, n)}
	if len(s.batches) > 0 {
		r.unplaced = make([][]cloud.VM, n)
		r.missing = make([]int32, n)
	}
	if traced {
		r.spans = make([][2]int64, n)
	}
	return r
}

func isRefusal(err error) bool {
	return errors.Is(err, cloud.ErrNoCapacity) || errors.Is(err, admission.ErrShed)
}

// do issues one op and records its outcome at index i. due > 0 times an
// arrival from that instant (open loop) instead of from the call. placed
// tracks, per VM id, whether a single arrival succeeded, so the departure of
// an unexpectedly refused VM is skipped rather than sent as a bogus request.
func (r *recorder) do(b backend, o *op, batches []batch, i int, due int64, placed []bool) error {
	switch o.kind {
	case opArrive:
		t0 := nanos()
		pm, err := b.Arrive(o.vm)
		t1 := nanos()
		if err != nil {
			if !isRefusal(err) {
				return err
			}
			pm = -1
		} else {
			placed[o.vm.ID] = true
		}
		r.pm[i] = int32(pm)
		if due > 0 {
			r.lat[i] = t1 - due
		} else {
			r.lat[i] = t1 - t0
		}
		if r.spans != nil {
			r.spans[i] = [2]int64{t0, t1}
		}
	case opDepart:
		if !placed[o.vm.ID] {
			r.pm[i] = -1 // skipped: its arrival was refused
			return nil
		}
		var t0 int64
		if r.spans != nil {
			t0 = nanos()
		}
		if err := b.Depart(o.vm.ID); err != nil {
			return err
		}
		placed[o.vm.ID] = false
		if r.spans != nil {
			r.spans[i] = [2]int64{t0, nanos()}
		}
	case opArriveBatch:
		t0 := nanos()
		unplaced, err := b.ArriveBatch(batches[o.batch].vms)
		t1 := nanos()
		if err != nil {
			return err
		}
		r.unplaced[i] = unplaced
		r.lat[i] = t1 - t0
		if r.spans != nil {
			r.spans[i] = [2]int64{t0, t1}
		}
	case opDepartBatch:
		var t0 int64
		if r.spans != nil {
			t0 = nanos()
		}
		missing, err := b.DepartBatch(batches[o.batch].ids)
		if err != nil {
			return err
		}
		r.missing[i] = int32(len(missing))
		if r.spans != nil {
			r.spans[i] = [2]int64{t0, nanos()}
		}
	}
	return nil
}

// replay issues ops[from:to] back to back from the calling goroutine.
func (r *recorder) replay(b backend, s *script, ops []op, from, to int, placed []bool) error {
	for i := from; i < to; i++ {
		if err := r.do(b, &ops[i], s.batches, i, 0, placed); err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// arrivalLats collects the recorded latencies of the arrival calls in
// ops[from:to].
func (r *recorder) arrivalLats(ops []op, from, to int, into []int64) []int64 {
	for i := from; i < to; i++ {
		if k := ops[i].kind; k == opArrive || k == opArriveBatch {
			into = append(into, r.lat[i])
		}
	}
	return into
}

// tally is the client-side accounting of a replay.
type tally struct {
	arrived, placed, refused, departed, missing int64
}

// count derives the tally of ops[from:to] from the recorded outcomes.
func (r *recorder) count(s *script, ops []op, from, to int) tally {
	var t tally
	for i := from; i < to; i++ {
		switch o := &ops[i]; o.kind {
		case opArrive:
			t.arrived++
			if r.pm[i] < 0 {
				t.refused++
			} else {
				t.placed++
			}
		case opDepart:
			if r.pm[i] >= 0 {
				t.departed++
			}
		case opArriveBatch:
			n := int64(len(s.batches[o.batch].vms))
			t.arrived += n
			t.refused += int64(len(r.unplaced[i]))
			t.placed += n - int64(len(r.unplaced[i]))
		case opDepartBatch:
			t.departed += int64(len(s.batches[o.batch].ids)) - int64(r.missing[i])
			t.missing += int64(r.missing[i])
		}
	}
	return t
}

func (t *tally) add(o tally) {
	t.arrived += o.arrived
	t.placed += o.placed
	t.refused += o.refused
	t.departed += o.departed
	t.missing += o.missing
}

// openStats describes how well the open-loop generator kept its schedule.
type openStats struct {
	lagNs      []int64 // send time − due time per dispatched op
	backlogMax int64   // max ops dispatched but not completed
	drainNs    int64   // last completion − last due time
}

const openWaiters = 64

// replayOpen dispatches ops[from:to] at their due times (shifted so that
// ops[from] is due now) from one dispatcher goroutine to openWaiters waiter
// goroutines keyed by VM id, which keeps each VM's arrival before its
// departure. Arrival latency runs from the due time, so a stall is charged to
// every op it delays.
func (r *recorder) replayOpen(b backend, s *script, from, to int, placed []bool) (openStats, error) {
	ops := s.ops
	var st openStats
	if from >= to {
		return st, nil
	}
	st.lagNs = make([]int64, to-from)
	counts := make([]int, openWaiters)
	for i := from; i < to; i++ {
		counts[ops[i].vm.ID%openWaiters]++
	}
	chans := make([]chan int32, openWaiters)
	for w := range chans {
		// Sized to every op this waiter will receive: the dispatcher must
		// never block on a slow waiter, or it would stop being an open loop.
		chans[w] = make(chan int32, counts[w])
	}
	var completed atomic.Int64
	lastDone := make([]int64, openWaiters)
	var errOnce sync.Once
	var firstErr error
	origin := nanos() - ops[from].due
	var wg sync.WaitGroup
	for w := 0; w < openWaiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for idx := range chans[w] {
				i := int(idx)
				if err := r.do(b, &ops[i], s.batches, i, origin+ops[i].due, placed); err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("op %d: %w", i, err) })
				}
				completed.Add(1)
			}
			lastDone[w] = nanos()
		}(w)
	}
	for i := from; i < to; i++ {
		target := origin + ops[i].due
		for {
			d := target - nanos()
			if d <= 0 {
				break
			}
			// time.Sleep overshoots by up to a timer tick (≈ 1 ms on the VMs
			// this runs on), so only the long gaps sleep, and wake early; the
			// rest of the wait yields in a loop.
			if d > 3_000_000 {
				time.Sleep(time.Duration(d - 2_000_000))
			} else {
				runtime.Gosched()
			}
		}
		st.lagNs[i-from] = nanos() - target
		chans[ops[i].vm.ID%openWaiters] <- int32(i)
		if bl := int64(i-from+1) - completed.Load(); bl > st.backlogMax {
			st.backlogMax = bl
		}
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	st.drainNs = slices.Max(lastDone) - (origin + ops[to-1].due)
	return st, firstErr
}

// snapshots returns the published snapshot of every service behind b.
func snapshots(b backend) []*placesvc.Snapshot {
	switch v := b.(type) {
	case *placesvc.Service:
		return []*placesvc.Snapshot{v.Snapshot()}
	case *shardsvc.Federation:
		return v.ShardSnapshots()
	}
	return nil
}

func statsOf(b backend) placesvc.Stats {
	switch v := b.(type) {
	case *placesvc.Service:
		return v.Stats()
	case *shardsvc.Federation:
		return v.Stats()
	}
	return placesvc.Stats{}
}

// checkFinal is the end-of-replay gate of every serving backend: each final
// snapshot satisfies Eq. (17) (cloud.CheckReserved clean, Overflows empty),
// and the service's own counters agree with what the clients were told.
// It returns the merged final placement. allowMissing tolerates departures of
// VMs the backend did not hold.
func checkFinal(b backend, t tally, allowMissing bool) (map[int]int, error) {
	if t.arrived != t.placed+t.refused {
		return nil, gatef("arrivals %d ≠ placed %d + refused %d", t.arrived, t.placed, t.refused)
	}
	if t.missing != 0 && !allowMissing {
		return nil, gatef("%d departures named VMs the service did not hold", t.missing)
	}
	final := make(map[int]int)
	for i, snap := range snapshots(b) {
		p, err := snap.Placement()
		if err != nil {
			return nil, gatef("snapshot %d placement: %v", i, err)
		}
		if v := cloud.CheckReserved(p, snap.Table()); len(v) != 0 {
			return nil, gatef("snapshot %d: %d PMs violate Eq. (17), first: %v", i, len(v), v[0])
		}
		ov, err := snap.Overflows()
		if err != nil || len(ov) != 0 {
			return nil, gatef("snapshot %d: Overflows = %d (err %v)", i, len(ov), err)
		}
		for vm, pm := range finalOf(p) {
			final[vm] = pm
		}
	}
	st := statsOf(b)
	if int64(len(final)) != t.placed-t.departed || int64(st.VMs) != t.placed-t.departed {
		return nil, gatef("placed %d − departed %d ≠ live VMs (snapshot %d, Stats %d)",
			t.placed, t.departed, len(final), st.VMs)
	}
	if int64(st.Placed) != t.placed || int64(st.Departed) != t.departed {
		return nil, gatef("Stats placed/departed %d/%d ≠ client view %d/%d",
			st.Placed, st.Departed, t.placed, t.departed)
	}
	return final, nil
}

// checkOracle compares what a sequential replay of ops[:n] returned, op by
// op, with the core.Online oracle w, then the final placement.
func checkOracle(s *script, r *recorder, w *oracle, n int, final map[int]int) error {
	for i := 0; i < n; i++ {
		switch o := &s.ops[i]; o.kind {
		case opArrive:
			if r.pm[i] != w.pm[i] {
				return gatef("op %d: VM %d placed on PM %d, oracle says %d", i, o.vm.ID, r.pm[i], w.pm[i])
			}
		case opArriveBatch:
			got, want := r.unplaced[i], w.unplaced[o.batch]
			if len(got) != len(want) {
				return gatef("op %d: %d VMs refused, oracle says %d", i, len(got), len(want))
			}
			for j := range got {
				if got[j].ID != want[j] {
					return gatef("op %d: refused VM #%d is %d, oracle says %d", i, j, got[j].ID, want[j])
				}
			}
		}
	}
	if len(final) != len(w.final) {
		return gatef("final placement holds %d VMs, oracle %d", len(final), len(w.final))
	}
	for vm, pm := range w.final {
		if got, ok := final[vm]; !ok || got != pm {
			return gatef("final placement: VM %d on PM %d (present %v), oracle says %d", vm, got, ok, pm)
		}
	}
	return nil
}
