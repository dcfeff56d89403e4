// Command bench is the repository's one benchmark: four workloads, the
// end-to-end metrics of BENCHMARK.json from an untraced run, and the per-layer
// metrics from a traced run. See README.md in this directory.
//
// Usage (from the repository root; run.sh builds this module and executes it):
//
//	bash bench/run.sh --workload closed-light --seed 42 --seconds 10 --trace 0
//	bash bench/run.sh -o bench/out/a.json          # all four, one child process each
//	bash bench/run.sh --trace 1 -o bench/out/t.json
//	bash bench/run.sh -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	traceOut string
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var compare, printManifest bool
	fs.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all four, one child process each)")
	fs.Int64Var(&o.seed, "seed", 42, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the timed rounds of one workload run")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
	fs.StringVar(&o.scale, "scale", "full", "input scale: full, or tiny for the smoke test")
	fs.StringVar(&o.out, "o", "", "all-workloads mode: also write the report JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "traced run: span file (default bench/out/trace-<workload>.jsonl)")
	fs.BoolVar(&compare, "compare", false, "compare two report files: -compare a.json b.json")
	fs.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case printManifest:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		return enc.Encode(theManifest())
	case compare:
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two report files")
		}
		return compareReports(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace = %d, want 0 or 1", o.trace)
	}
	if _, ok := scales[o.scale]; !ok {
		return fmt.Errorf("-scale = %q, want full or tiny", o.scale)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds = %v, want > 0", o.seconds)
	}
	// Precondition, verified rather than assumed: every workload is sized for
	// two cores (two clients, or a writer and a reader, or a dispatcher and a
	// service). On one core the figures would measure time-slicing.
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("host has %d CPU, the benchmark needs 2", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(workers)
	if o.workload == "" {
		return runAll(o, stdout, stderr)
	}
	def := findWorkload(o.workload)
	if def == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	d, err := runWorkload(def, o)
	if err != nil {
		return err
	}
	d.print(stderr)
	if err := json.NewEncoder(stdout).Encode(d); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(d.resultLine())
}

// envInfo records where the numbers were taken.
type envInfo struct {
	HostCores  int    `json:"host_cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func readEnv() envInfo {
	e := envInfo{HostCores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GitRev: "unknown"}
	// Best effort: the benchmark also runs from exported trees with no .git.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	return e
}

// detail is everything one workload run found; the contract's result line is
// derived from it, and the all-workloads report is a map of these.
type detail struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Scale     string             `json:"scale"`
	Traced    bool               `json:"traced"`
	Env       envInfo            `json:"env"`
	Rounds    int                `json:"rounds"`
	Reruns    int                `json:"invalid_rounds_rerun"`
	Samples   int                `json:"latency_samples"`
	TailQ     float64            `json:"tail_quantile"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Digest    string             `json:"script_digest"`
	EndToEnd  map[string]spread  `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfNs    map[string]int64   `json:"trace_self_ns_by_layer,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (d *detail) resultLine() result {
	r := result{Correct: true, Attempted: d.Attempted, Failed: d.Failed, Metrics: map[string]metricValue{}}
	if d.Traced {
		for _, m := range perLayer {
			r.Metrics[m.Name] = metricValue{d.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			r.Metrics[m.Name] = metricValue{d.EndToEnd[m.Name].Median, m.Unit}
		}
	}
	return r
}

func (d *detail) print(w io.Writer) {
	fmt.Fprintf(w, "%s  seed=%d scale=%s rounds=%d samples=%d tail=p%g digest=%s  (%d cores, GOMAXPROCS %d, %s, %s)\n",
		d.Workload, d.Seed, d.Scale, d.Rounds, d.Samples, 100*d.TailQ, d.Digest, d.Env.HostCores, d.Env.GOMAXPROCS, d.Env.GoVersion, d.Env.GitRev)
	for _, m := range endToEnd {
		s := d.EndToEnd[m.Name]
		fmt.Fprintf(w, "  %-16s %14.4f %-6s [min %.4f, max %.4f]\n", m.Name, s.Median, m.Unit, s.Min, s.Max)
	}
	if d.Traced {
		for _, m := range perLayer {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", m.Name, d.PerLayer[m.Name], m.Unit)
		}
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupBudget is how many seconds of set-up repetitions a run spends before
// it stops adding more than the minimum.
const setupBudget = 1.5

// runWorkload is one workload in this process: set-up (repeated, median
// reported), timed rounds on fresh services until the time budget is spent,
// and — traced — one traced round, the layer ladder and the probes.
func runWorkload(def *workloadDef, o options) (*detail, error) {
	sz := scales[o.scale]
	var tr *tracer
	if o.trace == 1 {
		tr = &tracer{}
	}
	root := tr.begin(0, def.Name, "driver")

	// Set-up runs at least sz.setups times, and cheap set-ups (tens of ms,
	// where one page-fault storm is a third of the figure) keep going until
	// they have filled setupBudget, so the reported median is steady.
	var fx fixture
	var setups []float64
	for total := 0.0; len(setups) < sz.setups || (total < setupBudget && len(setups) < 3*sz.setups); {
		fx = nil
		runtime.GC()
		id := tr.begin(root, "setup", "driver")
		t0 := nanos()
		var err error
		if fx, err = def.setup(o.seed, sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		dt := float64(nanos()-t0) / 1e9
		tr.end(id, 0)
		setups = append(setups, dt)
		total += dt
	}

	d := &detail{Workload: def.Name, Seed: o.seed, Scale: o.scale, Traced: tr != nil, Env: readEnv(),
		TailQ: tailQ[def.Name], Digest: fmt.Sprintf("%016x", fx.core().s.digest)}
	var rounds []*roundStats
	oneRound := func(t *tracer) (*roundStats, error) {
		st, err := fx.round(t, root)
		if errors.Is(err, errInvalidRound) {
			d.Reruns++
			fmt.Fprintln(os.Stderr, "bench:", err, "— repeating the round once")
			st, err = fx.round(t, root)
		}
		return st, err
	}
	want := sz.minRounds
	if tr == nil {
		want = sz.maxRounds
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rounds) < want && (len(rounds) < sz.minRounds || time.Now().Before(deadline)) {
		st, err := oneRound(nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, st)
	}

	col := func(f func(*roundStats) float64) spread {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = f(r)
		}
		return spreadOf(vs)
	}
	d.Rounds = len(rounds)
	d.EndToEnd = map[string]spread{
		"setup_s":       spreadOf(setups),
		"ops_per_s":     col(func(r *roundStats) float64 { return r.opsPerS }),
		"op_p50_us":     col(func(r *roundStats) float64 { return r.p50us }),
		"op_tail_us":    col(func(r *roundStats) float64 { return r.tailUs }),
		"admitted_frac": col(func(r *roundStats) float64 { return r.admitted }),
		"pms_used":      col(func(r *roundStats) float64 { return r.pmsUsed }),
		"allocs_per_op": col(func(r *roundStats) float64 { return r.allocsPerOp }),
	}
	for _, r := range rounds {
		d.Attempted += r.attempted
		d.Failed += r.failed
		d.Samples += r.samples
	}

	if tr != nil {
		st, err := oneRound(tr)
		if err != nil {
			return nil, err
		}
		d.PerLayer = map[string]float64{}
		for k, v := range st.extra {
			d.PerLayer[k] = v
		}
		d.PerLayer["driver.samples"] = float64(st.samples)
		// 48 bits of the digest survive a float64 exactly.
		d.PerLayer["driver.script_digest"] = float64(fx.core().s.digest & (1<<48 - 1))
		d.PerLayer["trace.overhead_frac"] = 1 - st.opsPerS/d.EndToEnd["ops_per_s"].Median
		if err := runLadder(fx, sz, tr, root, d.PerLayer); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		if err := runProbes(fx, sz, tr, root, d.PerLayer); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		tr.end(root, d.Attempted)
		d.SelfNs = tr.selfByLayer()
		path := o.traceOut
		if path == "" {
			path = filepath.Join("bench", "out", "trace-"+def.Name+".jsonl")
		}
		if err := tr.write(path, d.SelfNs); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.EndToEnd["peak_rss_mb"] = spread{rss, rss, rss}
	return d, nil
}

// report is the all-workloads output, the input of -compare.
type report struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envInfo            `json:"env"`
	Workloads map[string]*detail `json:"workloads"`
}

// runAll runs every workload in a child process of its own, so that peak RSS
// and GC state belong to one workload, and assembles their detail lines.
func runAll(o options, stdout, stderr io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Seed: o.seed, Seconds: o.seconds, Traced: o.trace == 1, Env: readEnv(), Workloads: map[string]*detail{}}
	for _, def := range workloadDefs {
		cmd := exec.Command(self, "--workload", def.Name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace), "--scale", o.scale)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", def.Name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 2 {
			return fmt.Errorf("workload %s printed %d lines, want detail and result", def.Name, len(lines))
		}
		var d detail
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &d); err != nil {
			return fmt.Errorf("workload %s detail line: %w", def.Name, err)
		}
		rep.Workloads[def.Name] = &d
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if o.out != "" {
		if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(o.out, data, 0o644); err != nil {
			return err
		}
	}
	_, err = stdout.Write(data)
	return err
}
