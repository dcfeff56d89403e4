package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/placesvc"
	"repro/internal/queuing"
)

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run on fewer than 2 CPUs")
	}
}

// runTiny runs one workload through the command-line entry point at tiny
// scale and returns the detail line and the contract's result line.
func runTiny(t *testing.T, workload string, trace string) (detail, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "42", "--seconds", "1", "--trace", trace,
		"--scale", "tiny", "--trace-out", filepath.Join(t.TempDir(), "trace.jsonl")}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: %d stdout lines, want detail + result", workload, len(lines))
	}
	var d detail
	var r result
	if err := json.Unmarshal([]byte(lines[0]), &d); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatal(err)
	}
	return d, r
}

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json to the in-code
// manifest the program prints its metrics from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, inCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(theManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(enc, &inCode); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, inCode) {
		t.Fatalf("BENCHMARK.json differs from the manifest; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}
	for _, w := range workloadDefs {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// exact lists, per workload, the metrics that must repeat bit for bit for a
// fixed seed: single-writer or single-client counts.
var exactEndToEnd = map[string][]string{
	"closed-light":         {"admitted_frac"},
	"open-burst-fed":       {"admitted_frac"},
	"batch-saturated-read": {"admitted_frac", "pms_used"},
	"consolidate-sim":      {"admitted_frac", "pms_used"},
}

var exactPerLayer = []string{"driver.script_digest", "shardsvc.forwards", "shardsvc.route_imbalance",
	"sim.cvr_mean", "sim.migrations", "sim.forecast_reports", "queuing.forecast_solves", "core.index_probes_per_query"}

// TestSmokeTiny runs all four workloads twice, untraced and traced, and checks
// the output schema against the manifest and that exact figures repeat.
func TestSmokeTiny(t *testing.T) {
	needTwoCPUs(t)
	for _, w := range workloadDefs {
		var firstD detail
		var firstE, firstL result
		for pass := 0; pass < 2; pass++ {
			d, e := runTiny(t, w.Name, "0")
			_, l := runTiny(t, w.Name, "1")
			for _, c := range []struct {
				r    result
				defs []metricDef
			}{{e, endToEnd}, {l, perLayer}} {
				if !c.r.Correct || c.r.Attempted < 1 || c.r.Failed != 0 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, c.r.Correct, c.r.Attempted, c.r.Failed)
				}
				if len(c.r.Metrics) != len(c.defs) {
					t.Errorf("%s: %d metrics printed, manifest has %d", w.Name, len(c.r.Metrics), len(c.defs))
				}
				for _, m := range c.defs {
					v, ok := c.r.Metrics[m.Name]
					if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", w.Name, m.Name, v, ok, m.Unit)
					}
				}
			}
			for _, m := range endToEnd {
				if e.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, e.Metrics[m.Name].Value)
				}
			}
			if pass == 0 {
				firstD, firstE, firstL = d, e, l
				continue
			}
			if d.Digest != firstD.Digest {
				t.Errorf("%s: script digest %s then %s at one seed", w.Name, firstD.Digest, d.Digest)
			}
			for _, name := range exactEndToEnd[w.Name] {
				if a, b := firstE.Metrics[name].Value, e.Metrics[name].Value; a != b {
					t.Errorf("%s: exact metric %s = %v then %v", w.Name, name, a, b)
				}
			}
			for _, name := range exactPerLayer {
				if a, b := firstL.Metrics[name].Value, l.Metrics[name].Value; a != b {
					t.Errorf("%s: exact per-layer metric %s = %v then %v", w.Name, name, a, b)
				}
			}
		}
		// The ladder's differences telescope to its top rung.
		m := firstL.Metrics
		sum := m["driver.replay_ns_per_op"].Value + m["core.online_ns_per_op"].Value + m["placesvc.hop_ns_per_op"].Value +
			m["shardsvc.wrap_ns_per_op"].Value + m["shardsvc.route_ns_per_op"].Value
		if top := m["ladder.top_ns_per_op"].Value; math.Abs(sum-top) > 1e-6*top {
			t.Errorf("%s: ladder self times sum to %v, top rung is %v", w.Name, sum, top)
		}
	}
}

// corrupt wraps a backend and falsifies one answer: the PM id of the n-th
// Arrive, or the refusal list of the n-th ArriveBatch.
type corrupt struct {
	backend
	n int
}

func (c *corrupt) Arrive(vm cloud.VM) (int, error) {
	pm, err := c.backend.Arrive(vm)
	if c.n--; c.n == 0 {
		pm++
	}
	return pm, err
}

func (c *corrupt) ArriveBatch(vms []cloud.VM) ([]cloud.VM, error) {
	unplaced, err := c.backend.ArriveBatch(vms)
	if c.n--; c.n == 0 {
		unplaced = append(unplaced, vms[0])
	}
	return unplaced, err
}

// TestOracleGateTrips replays a script against a real Service, once honestly
// (the gate passes) and once with a single corrupted answer (it must not).
func TestOracleGateTrips(t *testing.T) {
	sz := scales["tiny"]
	closed, _, err := genClosed(7, sz.closedVMs, sz.closedPMs, sz.closedOps)
	if err != nil {
		t.Fatal(err)
	}
	batch, _, err := genBatch(7, sz.batchPMs, sz.batchVMOps)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*script{"single": closed, "batch": batch} {
		tables := queuing.NewTableCache()
		n := len(s.ops)
		want := s.want
		if want == nil {
			o, err := core.NewOnline(strategy(tables), s.pms, pOn, pOff)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(s, n, false)
			if err := rec.replay(onlineBackend{o}, s, s.ops, 0, n, make([]bool, s.maxID+1)); err != nil {
				t.Fatal(err)
			}
			want = &oracle{pm: rec.pm, final: finalOf(o.Placement())}
		}
		for _, bad := range []int{0, 100} {
			svc, err := placesvc.New(placesvc.Config{Strategy: strategy(tables), PMs: s.pms, POn: pOn, POff: pOff})
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder(s, n, false)
			if err := rec.replay(&corrupt{svc, bad}, s, s.ops, 0, n, make([]bool, s.maxID+1)); err != nil {
				t.Fatal(err)
			}
			final, err := checkFinal(svc, rec.count(s, s.ops, 0, n), true)
			if err == nil {
				err = checkOracle(s, rec, want, n, final)
			}
			svc.Close()
			if bad == 0 && err != nil {
				t.Errorf("%s: honest replay failed the gate: %v", name, err)
			}
			if bad != 0 && !errors.Is(err, errGate) {
				t.Errorf("%s: corrupted answer #%d passed the gate (err = %v)", name, bad, err)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops float64) *report {
		r := &report{Seed: 42, Workloads: map[string]*detail{}}
		for _, w := range workloadDefs {
			d := &detail{Workload: w.Name, Digest: "d", EndToEnd: map[string]spread{}}
			for _, m := range endToEnd {
				d.EndToEnd[m.Name] = spread{Median: 100}
			}
			d.EndToEnd["ops_per_s"] = spread{Median: ops}
			r.Workloads[w.Name] = d
		}
		return r
	}
	write := func(name string, r *report) string {
		path := filepath.Join(t.TempDir(), name)
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, fast := write("a.json", mk(100)), write("b.json", mk(99)), write("c.json", mk(70)), write("d.json", mk(150))
	var out bytes.Buffer
	if err := compareReports(base, same, &out); err != nil {
		t.Errorf("1%% slower is inside the bound, got %v", err)
	}
	if err := compareReports(base, fast, &out); err != nil {
		t.Errorf("faster is not a regression, got %v", err)
	}
	if err := compareReports(base, slow, &out); err == nil {
		t.Errorf("30%% slower passed:\n%s", out.String())
	}
}
