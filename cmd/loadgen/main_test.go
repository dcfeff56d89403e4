package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// The human summary is loadgen's only output: for the single service and the
// federation alike it must carry a positive ops/sec figure and a rejected
// fraction in [0,1] (TestRunSummaryAdmitLatency covers the admit quantiles).
func TestRunSummary(t *testing.T) {
	for _, shards := range []string{"1", "4"} {
		var out strings.Builder
		err := run([]string{"-pms", "100", "-vms", "400", "-clients", "4", "-ops", "2000", "-seed", "7", "-shards", shards}, &out)
		if err != nil {
			t.Fatal(err)
		}
		got := out.String()
		for _, want := range []string{"m=100 PMs", "shards=" + shards, "commits"} {
			if !strings.Contains(got, want) {
				t.Errorf("-shards %s summary missing %q:\n%s", shards, want, got)
			}
		}
		var ops, arrivals int
		var elapsed string
		var rate, frac float64
		if _, err := fmt.Sscanf(summaryLine(t, got, "ops/sec"), "%d ops in %s %f ops/sec", &ops, &elapsed, &rate); err != nil || ops != 2000 || rate <= 0 {
			t.Errorf("-shards %s throughput line: ops %d, rate %v, err %v:\n%s", shards, ops, rate, err, got)
		}
		if _, err := fmt.Sscanf(summaryLine(t, got, "rejected-fraction"), "rejected-fraction %f over %d arrivals", &frac, &arrivals); err != nil || frac < 0 || frac > 1 || arrivals < 1 {
			t.Errorf("-shards %s rejected-fraction line: frac %v over %d, err %v:\n%s", shards, frac, arrivals, err, got)
		}
	}
}

// summaryLine returns the trimmed summary line containing marker.
func summaryLine(t *testing.T, summary, marker string) string {
	t.Helper()
	for _, l := range strings.Split(summary, "\n") {
		if strings.Contains(l, marker) {
			return strings.TrimSpace(l)
		}
	}
	t.Fatalf("no %q line in summary:\n%s", marker, summary)
	return ""
}

// Two runs with the same seed submit the same workload: the placed/rejected/
// departed accounting in the summary is identical.
func TestRunDeterministicWorkload(t *testing.T) {
	line := func() string {
		var out strings.Builder
		if err := run([]string{"-pms", "100", "-clients", "1", "-ops", "2000", "-seed", "11"}, &out); err != nil {
			t.Fatal(err)
		}
		return summaryLine(t, out.String(), "placed")
	}
	if a, b := line(), line(); a != b {
		t.Errorf("same seed diverged:\n%s\n%s", a, b)
	}
}

// A federated run (-shards > 1) completes and reports its shard count.
func TestRunFederated(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-pms", "100", "-vms", "400", "-clients", "4", "-ops", "2000", "-shards", "4", "-seed", "7"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "shards=4") {
		t.Errorf("summary missing shards=4:\n%s", got)
	}
}

// -workers is a real knob now, not a GOMAXPROCS hardcode: a single-worker
// single-client run still completes deterministically.
func TestRunWorkersFlag(t *testing.T) {
	line := func(workers string) string {
		var out strings.Builder
		if err := run([]string{"-pms", "100", "-clients", "1", "-ops", "1000", "-seed", "11", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		return summaryLine(t, out.String(), "placed")
	}
	// The Workers = N determinism contract, observed end to end: worker
	// counts never change the accounting.
	if a, b := line("1"), line("4"); a != b {
		t.Errorf("worker count changed the workload accounting:\n%s\n%s", a, b)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-pms", "0"},
		{"-clients", "0"},
		{"-clients", "-3"},
		{"-ops", "0"},
		{"-batch", "0"},
		{"-maxwait", "-1s"},
		{"-rho", "1.5"},
		{"-d", "0"},
		{"-rate", "-1"},
		{"-rate", "100", "-cv", "0"},
		{"-rate", "100", "-cv", "-2"},
		{"-workers", "0"},
		{"-shards", "0"},
		{"-shards", "-2"},
		{"-admission", "/no/such/policy.json"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// The client-count rejection must say what was wrong, not just fail.
	var out strings.Builder
	err := run([]string{"-clients", "-3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-clients must be ≥ 1") {
		t.Errorf("-clients -3 error = %v, want a message naming the flag and bound", err)
	}
}

// TestRunSummaryReportsGOMAXPROCS: the human summary names the proc count the
// run used, so matrix runs driven via the GOMAXPROCS env var are
// self-describing.
func TestRunSummaryReportsGOMAXPROCS(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-pms", "100", "-ops", "500", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0))
	if !strings.Contains(out.String(), want) {
		t.Errorf("summary missing %q:\n%s", want, out.String())
	}
}

// TestRunSummaryAdmitLatency checks the rolling p50/p99 line lands in the
// human summary, with real durations, behind one service and behind four.
func TestRunSummaryAdmitLatency(t *testing.T) {
	for _, shards := range []string{"1", "4"} {
		var out strings.Builder
		if err := run([]string{"-pms", "100", "-ops", "2000", "-seed", "7", "-shards", shards}, &out); err != nil {
			t.Fatal(err)
		}
		var p50s, p99s string
		line := strings.ReplaceAll(summaryLine(t, out.String(), "admit latency"), ",", "")
		if _, err := fmt.Sscanf(line, "admit latency p50 %s p99 %s", &p50s, &p99s); err != nil {
			t.Fatalf("-shards %s: cannot parse %q: %v", shards, line, err)
		}
		p50, err50 := time.ParseDuration(p50s)
		p99, err99 := time.ParseDuration(p99s)
		if err50 != nil || err99 != nil || p50 <= 0 || p99 < p50 {
			t.Errorf("-shards %s: admit p50 %q p99 %q, want 0 < p50 ≤ p99", shards, p50s, p99s)
		}
	}
}

// TestMetricsScrapeDuringRun starts loadgen with the live ops endpoint and,
// through the onMetricsURL hook (called while the run is active), scrapes
// /metrics, checks the exposition is format-conformant, and exercises
// /debug/flight and /debug/pprof. This is the smoke check `make metrics-smoke`
// runs in CI.
func TestMetricsScrapeDuringRun(t *testing.T) {
	defer func(old func(string)) { onMetricsURL = old }(onMetricsURL)
	var scraped []byte
	var flight obs.Dump
	var scrapeErr error
	onMetricsURL = func(metricsURL string) {
		base := strings.TrimSuffix(metricsURL, "/metrics")
		get := func(path string) []byte {
			resp, err := http.Get(base + path)
			if err != nil {
				scrapeErr = err
				return nil
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				scrapeErr = err
				return nil
			}
			if resp.StatusCode != http.StatusOK {
				scrapeErr = fmt.Errorf("GET %s: %s", path, resp.Status)
				return nil
			}
			return body
		}
		scraped = get("/metrics")
		if body := get("/debug/flight"); body != nil {
			if err := json.Unmarshal(body, &flight); err != nil {
				scrapeErr = fmt.Errorf("/debug/flight: %w", err)
			}
		}
		if body := get("/debug/pprof/cmdline"); len(body) == 0 && scrapeErr == nil {
			scrapeErr = fmt.Errorf("/debug/pprof/cmdline empty")
		}
	}
	var out strings.Builder
	err := run([]string{"-pms", "100", "-ops", "2000", "-seed", "7", "-metrics-addr", "127.0.0.1:0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	if scraped == nil {
		t.Fatal("onMetricsURL hook never ran; -metrics-addr wiring broken")
	}
	if err := telemetry.ValidateExposition(scraped); err != nil {
		t.Fatalf("scrape not exposition-conformant: %v\n%s", err, scraped)
	}
	for _, family := range []string{
		`loadgen_admit_window_seconds{q="0.99"}`,
		"# HELP obs_idc ",
		"obs_flight_events",
		"process_goroutines",
	} {
		if !strings.Contains(string(scraped), family) {
			t.Errorf("scrape missing %q", family)
		}
	}
	if flight.Trigger != obs.TriggerHTTP {
		t.Errorf("/debug/flight trigger = %q, want %q", flight.Trigger, obs.TriggerHTTP)
	}
}

// A starved token bucket sheds nearly every arrival: the summary must report
// the shed count and the rejected fraction, and the run must not error.
func TestRunWithAdmissionPolicySheds(t *testing.T) {
	policy := filepath.Join(t.TempDir(), "policy.json")
	body := `{"token_bucket": {"capacity": 1, "refill_per_sec": 0.000001}}`
	if err := os.WriteFile(policy, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-pms", "100", "-vms", "400", "-clients", "2", "-ops", "1000",
		"-admission", policy}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "shed") || !strings.Contains(got, "rejected-fraction") {
		t.Fatalf("summary missing shed accounting:\n%s", got)
	}
	var frac float64
	var arrivals int
	l := summaryLine(t, got, "rejected-fraction")
	if _, err := fmt.Sscanf(l, "rejected-fraction %f over %d arrivals", &frac, &arrivals); err != nil {
		t.Fatalf("cannot parse %q: %v", l, err)
	}
	if frac < 0.9 {
		t.Errorf("rejected-fraction = %v under a starved bucket, want ≈ 1", frac)
	}
}

// A paced run sleeps Gamma gaps between arrivals; at a high rate this stays
// fast while exercising the -rate/-cv path end to end.
func TestRunPacedArrivals(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-pms", "50", "-vms", "200", "-clients", "2", "-ops", "300",
		"-rate", "200000", "-cv", "3.5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "300 ops") {
		t.Errorf("paced run summary:\n%s", out.String())
	}
}
