package obs

import (
	"flag"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestPlaneGaugesAndWindows(t *testing.T) {
	p := NewPlane(Options{})
	defer p.Close()

	// A timed step event feeds probes, recorder and the sim-step window.
	p.Emit(telemetry.StepEvent{
		Interval: 0, VMs: 10, OnVMs: 4, PMsInUse: 5, Violations: 1,
		DurationNs: int64(2 * time.Millisecond),
	})
	p.QueueWait.Observe(100 * time.Microsecond)
	p.BatchApply.Observe(time.Millisecond)
	p.SnapshotPublish.Observe(10 * time.Microsecond)
	p.AdmitLatency.Observe(300 * time.Microsecond)
	p.RefreshGauges()

	snap := p.Registry.Snapshot()
	for _, name := range []string{
		`placesvc_queue_wait_window_seconds{q="0.5"}`,
		`placesvc_batch_apply_window_seconds{q="0.95"}`,
		`placesvc_snapshot_publish_window_seconds{q="0.99"}`,
		`sim_step_window_seconds{q="0.5"}`,
		`loadgen_admit_window_seconds{q="0.99"}`,
	} {
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %s not registered", name)
		}
		if math.IsNaN(v) || v <= 0 {
			t.Errorf("gauge %s = %g, want positive", name, v)
		}
	}
	if v := snap.Gauges["obs_on_fraction"]; math.Abs(v-0.4) > 1e-12 {
		t.Errorf("obs_on_fraction = %g, want 0.4", v)
	}
	if v := snap.Gauges["obs_flight_events"]; v != 1 {
		t.Errorf("obs_flight_events = %g, want 1", v)
	}
	if v := snap.Gauges["process_goroutines"]; v < 1 {
		t.Errorf("process_goroutines = %g", v)
	}
	if v, ok := snap.Gauges["process_heap_alloc_bytes"]; !ok || v <= 0 {
		t.Errorf("process_heap_alloc_bytes = %g, registered %v", v, ok)
	}
}

func TestPlaneSamplerRefreshes(t *testing.T) {
	p := NewPlane(Options{SamplePeriod: 5 * time.Millisecond})
	p.Start()
	defer p.Close()
	p.Emit(telemetry.StepEvent{Interval: 0, VMs: 2, OnVMs: 1, PMsInUse: 1})
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if p.Registry.Snapshot().Gauges["obs_flight_events"] == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("sampler never refreshed obs_flight_events")
}

// TestPlaneServedEndpoints boots the full HTTP surface — /metrics plus the
// plane's mounts — and checks the flight dump, a pprof route, and that the
// exposition body passes the conformance validator (NaN probe gauges
// included).
func TestPlaneServedEndpoints(t *testing.T) {
	p := NewPlane(Options{})
	defer p.Close()
	p.Emit(telemetry.StepEvent{Interval: 3, VMs: 1, OnVMs: 1, PMsInUse: 1})
	p.RefreshGauges()

	srv, err := telemetry.Serve("127.0.0.1:0", p.Registry, p.Mounts()...)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body := httpGet(t, base+"/metrics")
	if err := telemetry.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	if !strings.Contains(string(body), "obs_idc NaN") {
		t.Errorf("undefined IDC gauge not rendered as NaN:\n%s", body)
	}
	if !strings.Contains(string(body), "# HELP obs_on_fraction ") {
		t.Errorf("HELP line for obs_on_fraction missing")
	}

	dumpBody := httpGet(t, base+"/debug/flight")
	d, recs, err := ParseDump(dumpBody)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger != TriggerHTTP || len(recs) != 1 {
		t.Fatalf("flight dump trigger %q events %d", d.Trigger, len(recs))
	}

	if got := httpGet(t, base+"/debug/pprof/cmdline"); len(got) == 0 {
		t.Error("pprof cmdline endpoint empty")
	}
}

func httpGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFlagsFlightFile runs the flag bundle end to end: -flight plus -trace,
// a crash event mid-run forcing an automatic dump, and the final dump on
// Close — two JSON lines in the flight file.
func TestFlagsFlightFile(t *testing.T) {
	dir := t.TempDir()
	flightPath := filepath.Join(dir, "flight.jsonl")
	tracePath := filepath.Join(dir, "trace.jsonl")

	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{
		"-flight", flightPath, "-flight-cap", "8", "-trace", tracePath,
	}); err != nil {
		t.Fatal(err)
	}
	tracer, err := f.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if f.Plane() == nil {
		t.Fatal("no plane with -flight set")
	}
	tracer.Emit(telemetry.StepEvent{Interval: 1, VMs: 1, OnVMs: 1, PMsInUse: 1})
	tracer.Emit(telemetry.FaultEvent{Interval: 2, Type: telemetry.FaultPMCrash, PMID: 3})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := nonEmptyLines(string(raw))
	if len(lines) != 2 {
		t.Fatalf("flight file has %d dumps, want 2 (crash + final):\n%s", len(lines), raw)
	}
	d0, recs0, err := ParseDump([]byte(lines[0]))
	if err != nil {
		t.Fatal(err)
	}
	if d0.Trigger != TriggerPMCrash || len(recs0) != 2 {
		t.Fatalf("first dump: trigger %q events %d, want pm_crash/2", d0.Trigger, len(recs0))
	}
	d1, _, err := ParseDump([]byte(lines[1]))
	if err != nil {
		t.Fatal(err)
	}
	if d1.Trigger != TriggerFinal {
		t.Fatalf("second dump trigger %q, want final", d1.Trigger)
	}

	// The -trace sink saw the same events.
	recs, err := telemetry.ReadTraceFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("JSONL trace has %d records, want 2", len(recs))
	}
}

// TestFlagsLifecycle: -trace plus -metrics-addr serve a live scrape fed by
// the returned tracer, Close is idempotent, and the JSONL file decodes back
// to the emitted event.
func TestFlagsLifecycle(t *testing.T) {
	f := &Flags{
		Trace:       filepath.Join(t.TempDir(), "out.jsonl"),
		MetricsAddr: "127.0.0.1:0",
	}
	tracer, err := f.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if !tracer.Enabled() {
		t.Fatal("activated tracer is disabled")
	}
	if f.Registry() == nil {
		t.Fatal("metrics registry missing")
	}
	tracer.Emit(telemetry.StepEvent{Interval: 0, Migrations: 2, PMsInUse: 5})

	if body := httpGet(t, f.MetricsURL()); !strings.Contains(string(body), "sim_migrations_total 2") {
		t.Errorf("live scrape missing migration counter:\n%s", body)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	recs, err := telemetry.ReadTraceFile(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("trace has %d records, want 1", len(recs))
	}
	step, ok := recs[0].Event.(*telemetry.StepEvent)
	if !ok || step.Migrations != 2 {
		t.Errorf("decoded %#v", recs[0].Event)
	}
}

func TestFlagsDisabled(t *testing.T) {
	f := &Flags{}
	tracer, err := f.Activate()
	if err != nil {
		t.Fatal(err)
	}
	if tracer != telemetry.Nop {
		t.Error("no flags set but tracer is not Nop")
	}
	if f.MetricsURL() != "" {
		t.Error("MetricsURL nonempty with no server")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
