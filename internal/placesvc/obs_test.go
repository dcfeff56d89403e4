package placesvc

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestServiceObsSpans drives admissions through a service with the full obs
// plane attached and checks every committer span lands in its rolling window:
// queue wait, batch apply, snapshot publish, plus the interarrival probe.
func TestServiceObsSpans(t *testing.T) {
	plane := obs.NewPlane(obs.Options{})
	defer plane.Close()
	svc := newServiceT(t, Config{Obs: plane})

	for i := 0; i < 32; i++ {
		if _, err := svc.Arrive(mkVM(i, 5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Depart(0); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for _, w := range []struct {
		name string
		win  *obs.WindowedTimer
	}{
		{"queue_wait", plane.QueueWait},
		{"batch_apply", plane.BatchApply},
		{"snapshot_publish", plane.SnapshotPublish},
	} {
		hs := w.win.Snapshot()
		if hs.Count == 0 {
			t.Errorf("%s window empty after 33 committed requests", w.name)
		}
		if q := w.win.Quantile(0.99); math.IsNaN(q) || q < 0 {
			t.Errorf("%s p99 = %v", w.name, q)
		}
	}

	// 32 arrivals fed the interarrival probe; the CV gauge must be defined.
	plane.RefreshGauges()
	snap := plane.Registry.Snapshot()
	cv, ok := snap.Gauges["obs_interarrival_cv"]
	if !ok || math.IsNaN(cv) || cv < 0 {
		t.Errorf("obs_interarrival_cv = %v (defined=%v), want a finite value ≥ 0", cv, ok)
	}
}

// TestServiceObsRejectionStorm fills a tiny pool until arrivals reject and
// requires the capacity-rejection storm to reach the flight recorder.
func TestServiceObsRejectionStorm(t *testing.T) {
	var dumps []obs.Dump
	plane := obs.NewPlane(obs.Options{
		StormThreshold: 4,
		OnDump:         func(d obs.Dump) { dumps = append(dumps, d) },
	})
	defer plane.Close()
	svc := newServiceT(t, Config{
		PMs: mkPool(1, 20), // fits ~3 VMs of Rb 5; the rest reject
		Obs: plane,
	})
	defer svc.Close()

	rejected := 0
	for i := 0; i < 32; i++ {
		_, err := svc.Arrive(mkVM(i, 5, 3))
		switch {
		case err == nil:
		case errors.Is(err, cloud.ErrNoCapacity):
			rejected++
		default:
			t.Fatal(err)
		}
	}
	if rejected < 4 {
		t.Fatalf("only %d rejections; pool sizing broke the storm setup", rejected)
	}
	found := false
	for _, d := range dumps {
		if d.Trigger == obs.TriggerStorm {
			found = true
		}
	}
	if !found {
		t.Fatalf("%d rejections produced no storm dump (dumps: %d)", rejected, len(dumps))
	}
}

// TestServiceObsOffNoEnqueueStamp confirms the zero-instrumentation path
// stays zero: with neither Registry nor Obs, requests carry no timestamps.
func TestServiceObsOffNoEnqueueStamp(t *testing.T) {
	svc := newServiceT(t, Config{})
	defer svc.Close()
	r := svc.get(reqArrive)
	r.vm = mkVM(1, 5, 3)
	if err := svc.submit(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if !r.enq.IsZero() {
		t.Fatal("enq stamped with instrumentation disabled")
	}
	svc.put(r)
}

// TestServiceObsMetricsValidExposition runs the service with both Registry
// and Obs on one registry and validates the combined scrape.
func TestServiceObsMetricsValidExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	plane := obs.NewPlane(obs.Options{Registry: reg})
	defer plane.Close()
	svc := newServiceT(t, Config{Registry: reg, Obs: plane})
	for i := 0; i < 8; i++ {
		if _, err := svc.Arrive(mkVM(i, 5, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	plane.RefreshGauges()
	out := reg.PrometheusString()
	if err := telemetry.ValidateExposition([]byte(out)); err != nil {
		t.Fatalf("combined exposition invalid: %v\n%s", err, out)
	}
}
