package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/markov"
	"repro/internal/queuing"
	"repro/internal/workload"
)

// reportDigest hashes every Report field section by section, floats by their
// bit patterns, so a golden mismatch names the part of the report that moved.
func reportDigest(t *testing.T, rep *Report, extra ...int) map[string]string {
	t.Helper()
	out := make(map[string]string)
	section := func(name string, write func(p func(format string, a ...any))) {
		h := sha256.New()
		write(func(format string, a ...any) { fmt.Fprintf(h, format, a...) })
		out[name] = fmt.Sprintf("%x", h.Sum(nil)[:12])
	}
	bits := math.Float64bits
	section("scalars", func(p func(string, ...any)) {
		p("%d %d %d %d %v", rep.Intervals, rep.TotalMigrations, rep.FinalPMs, rep.PowerOns, extra)
	})
	section("events", func(p func(string, ...any)) {
		for _, ev := range rep.Events {
			p("%d %d %d %d %t;", ev.Interval, ev.VMID, ev.FromPM, ev.ToPM, ev.PoweredOn)
		}
	})
	section("cvr_counts", func(p func(string, ...any)) {
		for _, id := range rep.CVR.PMs() {
			steps, viol := rep.CVR.Counts(id)
			p("%d %d %d;", id, steps, viol)
		}
		p("%x %x", bits(rep.CVR.Mean()), bits(rep.CVR.Max()))
	})
	section("vm_violation_ratio", func(p func(string, ...any)) {
		ids := make([]int, 0, len(rep.VMViolationRatio))
		for id := range rep.VMViolationRatio {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p("%d %x;", id, bits(rep.VMViolationRatio[id]))
		}
	})
	section("per_vm_migrations", func(p func(string, ...any)) {
		ids := make([]int, 0, len(rep.PerVMMigrations))
		for id := range rep.PerVMMigrations {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			p("%d %d;", id, rep.PerVMMigrations[id])
		}
	})
	section("series", func(p func(string, ...any)) {
		for i := 0; i < rep.PMsOverTime.Len(); i++ {
			st, v := rep.PMsOverTime.At(i)
			p("%d %x;", st, bits(v))
		}
		for i := 0; i < rep.MigrationsOverTime.Len(); i++ {
			st, v := rep.MigrationsOverTime.At(i)
			p("%d %x;", st, bits(v))
		}
	})
	section("forecasts", func(p func(string, ...any)) {
		d := rep.Forecasts
		if d == nil {
			return
		}
		p("%d %d %x %x|", d.Horizon, d.Intervals, bits(d.MeanViolation), bits(d.MaxViolation))
		if f := d.Final; f != nil {
			p("%d %d %x %x|", f.Interval, f.Horizon, bits(f.MeanViolation), bits(f.MaxViolation))
			for _, pm := range f.PMs {
				p("%d %d %d %d %x;", pm.PMID, pm.VMs, pm.Busy, pm.Blocks, bits(pm.Violation))
			}
		}
	})
	section("faults", func(p func(string, ...any)) {
		js, err := json.Marshal(rep.Faults)
		if err != nil {
			t.Fatal(err)
		}
		p("%s", js)
	})
	return out
}

// goldenFleet generates the benchmark's fleet (bench/script.go genFleet): n
// PatternEqual VMs and n PMs with C ∈ [80,100] from one seeded stream. idOf
// renumbers the VMs (nil keeps 0..n−1).
func goldenFleet(t *testing.T, n int, seed int64, idOf func(i int) int) ([]cloud.VM, []cloud.PM) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, n), rng)
	if err != nil {
		t.Fatal(err)
	}
	pms, err := workload.GeneratePMs(n, 80, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if idOf != nil {
		for i := range vms {
			vms[i].ID = idOf(i)
		}
	}
	return vms, pms
}

func goldenPlace(t *testing.T, s core.Strategy, vms []cloud.VM, pms []cloud.PM) *cloud.Placement {
	t.Helper()
	res, err := s.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%s left %d VMs unplaced", s.Name(), len(res.Unplaced))
	}
	return res.Placement
}

// goldenTightPlacement RB-packs the fleet onto exactly the PMs an RB packing
// of the whole pool uses, so no PM is spare and a wide outage strands VMs.
func goldenTightPlacement(t *testing.T, vms []cloud.VM, pms []cloud.PM) *cloud.Placement {
	t.Helper()
	loose := goldenPlace(t, core.FFDByRb{}, vms, pms)
	var pool []cloud.PM
	for _, id := range loose.UsedPMs() {
		pm, _ := loose.PM(id)
		pool = append(pool, pm)
	}
	return goldenPlace(t, core.FFDByRb{}, vms, pool)
}

func goldenTable(t *testing.T) *queuing.MappingTable {
	t.Helper()
	table, err := queuing.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func goldenFaultPlan(t *testing.T) *faults.Plan {
	t.Helper()
	plan, err := faults.Schedule{
		Seed:              42,
		Crashes:           []faults.CrashWindow{{PM: 0, Start: 10, Duration: 15}, {PM: 3, Start: 40, Duration: 20}},
		CrashProb:         0.05,
		CrashSpread:       100,
		Downtime:          20,
		MigrationFailProb: 0.2,
		StragglerProb:     0.1,
		OvershootProb:     0.02,
		OvershootFactor:   1.5,
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// goldenScenarios are the runs whose whole Report is pinned to the digest
// recorded at the parent of the dense-column change (commit 82ee214): the
// engine may get faster, no simulated bit may move. Each takes the shard
// count to run at; noisy demand is single-shard by contract.
var goldenScenarios = []struct {
	name   string
	shards []int
	run    func(t *testing.T, shards int) map[string]string
}{
	// The benchmark's consolidate-sim configuration at n = 2000 / 100
	// intervals: QUEUE packing, HashedFleet demand, migration on with 0.1
	// overhead, horizon-10 forecasts on a private cache.
	{"consolidate_sim", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 2000, 42, nil)
		p := goldenPlace(t, queueStrategy(), vms, pms)
		fleet, err := workload.NewHashedFleet(vms, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Intervals: 100, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards,
			Forecast: &ForecastConfig{Horizon: 10, Cache: queuing.NewForecastCache()},
		}
		s, err := NewWithSource(p, goldenTable(t), cfg, fleet, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.TotalMigrations == 0 {
			t.Fatal("scenario triggers no migrations")
		}
		return reportDigest(t, rep)
	}},
	// An internal/faults plan with crashes, failed and straggling migrations
	// and overshoot over an RB packing (heavy churn), default FleetStates
	// source, forecasts every 5th interval.
	{"faults", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 300, 7, nil)
		p := goldenPlace(t, core.FFDByRb{}, vms, pms)
		cfg := Config{
			Intervals: 100, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards,
			Faults:   goldenFaultPlan(t),
			Forecast: &ForecastConfig{Horizon: 10, Every: 5, Cache: queuing.NewForecastCache()},
		}
		s, err := New(p, goldenTable(t), cfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		fr := rep.Faults
		if fr.PMCrashes == 0 || fr.MigrationFailures == 0 || fr.Overshoots == 0 || fr.EvacuatedVMs == 0 {
			t.Fatalf("scenario misses a fault kind: %+v", fr)
		}
		return reportDigest(t, rep)
	}},
	// A tight pool under a wide outage: evacuees strand and are re-placed
	// later, some best-effort (degraded).
	{"strand", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 120, 5, nil)
		tight := goldenTightPlacement(t, vms, pms)
		plan := stubPlan{
			down: func(pmID, interval int) bool { return pmID%2 == 0 && interval >= 10 && interval < 30 },
			overshoot: func(interval, vmID int) float64 {
				if (interval+vmID)%17 == 0 {
					return 1.5
				}
				return 1
			},
		}
		cfg := Config{Intervals: 60, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards, Faults: plan}
		fleet, err := workload.NewHashedFleet(vms, 5)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewWithSource(tight, goldenTable(t), cfg, fleet, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Faults.EvacuationLatencyMean == 0 {
			t.Fatalf("scenario strands nothing: %+v", rep.Faults)
		}
		return reportDigest(t, rep)
	}},
	// The source's map carries ids the ledger never hosts: unplaced fleet
	// members that keep flipping, a negative id and one far outside any dense
	// range.
	{"extra_ids", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 400, 11, nil)
		p := goldenPlace(t, core.FFDByRb{}, vms[:300], pms)
		fleet, err := workload.NewHashedFleet(vms, 11)
		if err != nil {
			t.Fatal(err)
		}
		fleet.States()[-7] = markov.On
		fleet.States()[1<<40] = markov.On
		cfg := Config{Intervals: 80, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards}
		s, err := NewWithSource(p, nil, cfg, fleet, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(t, rep)
	}},
	// Sparse VM ids (the map side of the id index), default source.
	{"sparse_ids", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 300, 13, func(i int) int { return 11 + i*1_000_003 })
		p := goldenPlace(t, core.FFDByRb{}, vms, pms)
		cfg := Config{Intervals: 80, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards}
		s, err := New(p, nil, cfg, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(t, rep)
	}},
	// RequestNoise draws from the shared RNG once per hosted VM per interval
	// in position order; any change to the walk order shows here.
	{"noise", []int{1}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 200, 17, nil)
		p := goldenPlace(t, core.FFDByRb{}, vms, pms)
		cfg := Config{
			Intervals: 60, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.1, Shards: shards,
			RequestNoise: true, UsersPerUnit: 40,
		}
		s, err := New(p, nil, cfg, rand.New(rand.NewSource(17)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return reportDigest(t, rep)
	}},
	// Open system: departures leave registered-but-detached VMs behind and
	// arrivals register new ones mid-run.
	{"churn", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 150, 19, nil)
		p := goldenPlace(t, queueStrategy(), vms, pms)
		cfg := ChurnConfig{
			Sim:          Config{Intervals: 150, Rho: 0.01, EnableMigration: true, Shards: shards, Faults: goldenFaultPlan(t)},
			ArrivalProb:  0.6,
			MeanLifetime: 120,
			NewVM:        churnSpec,
		}
		c, err := NewChurn(p, goldenTable(t), cfg, rand.New(rand.NewSource(19)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Arrivals == 0 || rep.Departures == 0 {
			t.Fatalf("scenario has no churn: %d arrivals, %d departures", rep.Arrivals, rep.Departures)
		}
		return reportDigest(t, rep.Report, rep.Arrivals, rep.Departures, rep.RejectedArrivals, rep.FinalVMs)
	}},
	// Periodic reconsolidation under crashes and flaky planned moves: plan
	// execution and rollback re-attach VMs at their cached demand.
	{"controller", []int{1, 4}, func(t *testing.T, shards int) map[string]string {
		vms, pms := goldenFleet(t, 60, 97, nil)
		p := goldenPlace(t, core.FFDByRb{}, vms, pms)
		plan := stubPlan{
			down:  func(pmID, interval int) bool { return pmID%7 == 0 && interval >= 20 && interval < 40 },
			fails: func(interval, vmID, attempt int) bool { return (interval+vmID)%5 == 0 && attempt == 1 },
		}
		ctrl, err := NewController(p, goldenTable(t),
			Config{Intervals: 80, Rho: 0.01, EnableMigration: true, Shards: shards, Faults: plan},
			queueStrategy(), 20, rand.New(rand.NewSource(97)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ctrl.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Rollbacks == 0 || rep.PlannedMigrations == 0 {
			t.Fatalf("scenario misses rollback or plan execution: %+v", rep)
		}
		return reportDigest(t, rep.Report, rep.ReconsolidationRuns, rep.PlannedMigrations, rep.Rollbacks)
	}},
}

// TestReportGoldenDigest asserts bit-identity of whole Reports to the parent
// commit of the dense-column engine, at every shard count. The golden file
// was recorded on that parent; -update rewrites it from shards = 1 and is
// only legitimate for a change that means to alter simulated results.
func TestReportGoldenDigest(t *testing.T) {
	path := filepath.Join("testdata", "report_digest.golden")
	if *updateGolden {
		all := make(map[string]map[string]string)
		for _, sc := range goldenScenarios {
			all[sc.name] = sc.run(t, 1)
		}
		js, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for _, sc := range goldenScenarios {
		for _, shards := range sc.shards {
			t.Run(fmt.Sprintf("%s/shards=%d", sc.name, shards), func(t *testing.T) {
				got := sc.run(t, shards)
				if len(want[sc.name]) != len(got) {
					t.Fatalf("golden has %d sections, run produced %d", len(want[sc.name]), len(got))
				}
				for section, h := range got {
					if want[sc.name][section] != h {
						t.Errorf("section %q diverged from the parent commit: %s, want %s", section, h, want[sc.name][section])
					}
				}
			})
		}
	}
}
