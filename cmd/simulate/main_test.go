package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func writeSpec(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"vms": [`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"ID":%d,"POn":0.01,"POff":0.09,"Rb":12,"Re":6}`, i)
	}
	b.WriteString(`], "pms": [`)
	for i := 0; i < 30; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, `{"ID":%d,"Capacity":90}`, i)
	}
	b.WriteString(`], "rho": 0.01, "max_vms_per_pm": 16}`)
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunEmitsSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t), "-intervals", "40"}, &buf); err != nil {
		t.Fatal(err)
	}
	var summary sim.Summary
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if summary.Intervals != 40 {
		t.Errorf("intervals = %d", summary.Intervals)
	}
	if summary.FinalPMs < 1 {
		t.Error("no PMs in summary")
	}
}

func TestRunAllStrategies(t *testing.T) {
	spec := writeSpec(t)
	for _, s := range []string{"queue", "rp", "rb", "rbex", "sbp", "conv"} {
		var buf bytes.Buffer
		if err := run([]string{"-spec", spec, "-strategy", s, "-intervals", "20"}, &buf); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

func TestRunWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.csv")
	series := filepath.Join(dir, "series.csv")
	var buf bytes.Buffer
	err := run([]string{
		"-spec", writeSpec(t), "-strategy", "rb", "-intervals", "40",
		"-events", events, "-series", series,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(ev), "interval,vm,from_pm,to_pm,powered_on") {
		t.Error("events CSV header missing")
	}
	se, err := os.ReadFile(series)
	if err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(string(se)), "\n")) != 41 {
		t.Error("series CSV row count wrong")
	}
}

// TestRunWritesDecodableTrace is the acceptance check for -trace: the run
// must produce a JSONL file whose every line decodes, covering at least the
// solve, placement, and sim_step event families.
func TestRunWritesDecodableTrace(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	var buf bytes.Buffer
	err := run([]string{
		"-spec", writeSpec(t), "-strategy", "queue", "-intervals", "40",
		"-trace", trace,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadTraceFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("trace file is empty")
	}
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Event.Kind()]++
	}
	for _, want := range []string{"solve", "placement", "sim_step"} {
		if kinds[want] == 0 {
			t.Errorf("trace has no %q events (kinds seen: %v)", want, kinds)
		}
	}
	// Every interval must have produced exactly one step event.
	if kinds["sim_step"] != 40 {
		t.Errorf("sim_step events = %d, want 40", kinds["sim_step"])
	}
}

// TestMetricsServedForPipeline drives the same pipeline run() executes —
// consolidate then simulate, instrumented through obs.Flags — and
// scrapes the live endpoint, checking the acceptance criterion: valid
// Prometheus text with solve-duration histograms and placement/migration
// counters. (run() closes its server on exit, so the scrape happens here
// between the simulation and Close.)
func TestMetricsServedForPipeline(t *testing.T) {
	tf := obs.Flags{MetricsAddr: "127.0.0.1:0"}
	tracer, err := tf.Activate()
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()

	f, err := os.Open(writeSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := cloud.ReadFleet(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s, err := pickStrategy("queue", fleet, 0.3, 0.01, tracer)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Place(fleet.VMs, fleet.PMs)
	if err != nil {
		t.Fatal(err)
	}
	pOn, pOff, err := core.RoundSwitchProbabilities(fleet.VMs, core.RoundMean)
	if err != nil {
		t.Fatal(err)
	}
	table, err := queuing.NewMappingTableTraced(fleet.MaxVMsPerPM, pOn, pOff, fleet.Rho, tracer)
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(res.Placement, table, sim.Config{
		Intervals: 40, Rho: fleet.Rho, EnableMigration: true, Tracer: tracer,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := simulator.Run(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(tf.MetricsURL())
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mapcal_solve_duration_seconds histogram",
		`mapcal_solve_duration_seconds_bucket{le="+Inf"}`,
		`placement_decisions_total{decision="accept"}`,
		"sim_steps_total 40",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// obs.Flags mounts the flight recorder on the same endpoint.
	resp, err = http.Get(strings.TrimSuffix(tf.MetricsURL(), "/metrics") + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/flight: %s", resp.Status)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing spec accepted")
	}
	if err := run([]string{"-spec", "/nope.json"}, &buf); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-spec", writeSpec(t), "-strategy", "bogus"}, &buf); err == nil {
		t.Error("unknown strategy accepted")
	}
	if err := run([]string{"-spec", writeSpec(t), "-events", "/no/such/dir/x.csv"}, &buf); err == nil {
		t.Error("unwritable events path accepted")
	}
}

func TestFlagValidationRejectsBadCombinations(t *testing.T) {
	spec := writeSpec(t)
	cases := [][]string{
		{"-spec", spec, "-intervals", "0"},
		{"-spec", spec, "-intervals", "-3"},
		{"-spec", spec, "-delta", "1.0"},
		{"-spec", spec, "-delta", "-0.1"},
		{"-spec", spec, "-epsilon", "0"},
		{"-spec", spec, "-epsilon", "1"},
		{"-spec", spec, "-faults", "/no/such/schedule.json"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunWithFaultSchedule(t *testing.T) {
	sched := filepath.Join(t.TempDir(), "faults.json")
	body := `{"seed": 5, "crashes": [{"pm": 0, "start": 5, "duration": 10}], "migration_fail_prob": 0.2}`
	if err := os.WriteFile(sched, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-spec", writeSpec(t), "-intervals", "30", "-faults", sched}, &buf); err != nil {
		t.Fatal(err)
	}
	var summary sim.Summary
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if summary.Faults == nil {
		t.Fatal("summary has no fault digest despite -faults")
	}
	if summary.Faults.PMCrashes != 1 {
		t.Errorf("PMCrashes = %d, want 1 (explicit window)", summary.Faults.PMCrashes)
	}
	// Without -faults the digest is omitted entirely.
	buf.Reset()
	if err := run([]string{"-spec", writeSpec(t), "-intervals", "30"}, &buf); err != nil {
		t.Fatal(err)
	}
	var clean sim.Summary
	if err := json.Unmarshal(buf.Bytes(), &clean); err != nil {
		t.Fatal(err)
	}
	if clean.Faults != nil {
		t.Error("fault digest present on a fault-free run")
	}
}

func TestRunOpenSystemWithAdmission(t *testing.T) {
	spec := writeSpec(t)
	policy := filepath.Join(t.TempDir(), "admission.json")
	body := `{"occupancy": {"shed_above": 0.01, "resume_below": 0.005}}`
	if err := os.WriteFile(policy, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	// A near-zero shed threshold refuses every arrival: sheds counted,
	// nothing rejected by the placement test.
	var buf bytes.Buffer
	if err := run([]string{"-spec", spec, "-intervals", "30",
		"-arrivals", "1", "-admission", policy}, &buf); err != nil {
		t.Fatal(err)
	}
	var shedRun sim.ChurnSummary
	if err := json.Unmarshal(buf.Bytes(), &shedRun); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, buf.String())
	}
	if shedRun.ShedArrivals == 0 {
		t.Error("no arrivals shed despite a near-zero occupancy threshold")
	}
	if shedRun.Arrivals != 0 || shedRun.RejectedArrivals != 0 {
		t.Errorf("arrivals = %d, rejected = %d; want 0 past a closed gate",
			shedRun.Arrivals, shedRun.RejectedArrivals)
	}
	// Without a policy the same open run admits and never sheds.
	buf.Reset()
	if err := run([]string{"-spec", spec, "-intervals", "30", "-arrivals", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	var open sim.ChurnSummary
	if err := json.Unmarshal(buf.Bytes(), &open); err != nil {
		t.Fatal(err)
	}
	if open.ShedArrivals != 0 {
		t.Errorf("sheds = %d without a policy", open.ShedArrivals)
	}
	if open.Arrivals+open.RejectedArrivals == 0 {
		t.Error("open system saw no arrivals at p=1")
	}
}

func TestChurnFlagValidation(t *testing.T) {
	spec := writeSpec(t)
	policy := filepath.Join(t.TempDir(), "admission.json")
	if err := os.WriteFile(policy, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-spec", spec, "-arrivals", "1.5"},
		{"-spec", spec, "-arrivals", "-0.1"},
		{"-spec", spec, "-lifetime", "100"},                    // -lifetime without -arrivals
		{"-spec", spec, "-admission", policy},                  // -admission without -arrivals
		{"-spec", spec, "-arrivals", "0.5", "-lifetime", "-1"}, // bad lifetime
		{"-spec", spec, "-arrivals", "0.5", "-admission", "/no/such/policy.json"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
