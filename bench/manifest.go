package main

// The manifest is the Go-side copy of BENCHMARK.json: main_test.go asserts the
// two agree, -compare reads bounds from here, and `-manifest` prints the file.

type workloadDef struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	setup func(seed int64, sz sizes) (fixture, error)
}

type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

var workloadDefs = []workloadDef{
	{"closed-light", "closed loop, 2 clients, one placesvc.Service at ~10% pool occupancy: first-fit answers at once, so the queue hop, commit, publish and wake-up do the work; batching and routing are bypassed", setupClosed},
	{"open-burst-fed", "open loop, Gamma CV 3.5 arrivals at 20k/s through a 4-shard Federation with admission: the only workload where a backlog forms, so router, policy and coalescing move the tail", setupOpen},
	{"batch-saturated-read", "one writer of ArriveBatch/DepartBatch on a pool held full (1 VM in 10 refused by Eq. 17) plus a 5 ms monitoring reader: deep first-fit walks, refusals, rescoring and the snapshot path", setupBatch},
	{"consolidate-sim", "offline QueuingFFD.Place of 100k VMs then 300 simulated intervals with forecasts: queuing, core, fitindex, sim and workload do all the work and the serving layers none", setupCons},
}

func bound(b float64) *float64 { return &b }

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"op_p50_us", "us", "lower", bound(0.25)},
	{"op_tail_us", "us", "lower", bound(0.25)},
	{"admitted_frac", "ratio", "higher", bound(0.01)},
	{"pms_used", "count", "lower", bound(0.20)},
	{"allocs_per_op", "1/op", "lower", bound(0.05)},
	{"peak_rss_mb", "MB", "lower", bound(0.20)},
}

var perLayer = []metricDef{
	// Layer ladder: the workload's own script replayed by one client against
	// successive boundaries; each figure is a rung minus the rung below.
	{"driver.replay_ns_per_op", "ns", "lower", nil},
	{"core.online_ns_per_op", "ns", "lower", nil},
	{"placesvc.hop_ns_per_op", "ns", "lower", nil},
	{"shardsvc.wrap_ns_per_op", "ns", "lower", nil},
	{"shardsvc.route_ns_per_op", "ns", "lower", nil},
	{"ladder.top_ns_per_op", "ns", "lower", nil},
	{"admission.decide_ns_per_op", "ns", "lower", nil},
	{"obs.attach_ns_per_op", "ns", "lower", nil},
	{"shardsvc.forwards", "count", "lower", nil},
	{"shardsvc.route_imbalance", "ratio", "lower", nil},
	// Counters of the workload's own traced round.
	{"placesvc.mean_batch", "count", "higher", nil},
	{"placesvc.commits", "count", "lower", nil},
	{"driver.gen_lag_frac", "ratio", "lower", nil},
	{"driver.backlog_max", "count", "lower", nil},
	{"driver.samples", "count", "higher", nil},
	{"driver.script_digest", "hash", "lower", nil},
	{"trace.overhead_frac", "ratio", "lower", nil},
	// Probes on the workload's fleet and script.
	{"placesvc.arrive_batch_us_per_vm", "us", "lower", nil},
	{"placesvc.depart_batch_us_per_vm", "us", "lower", nil},
	{"placesvc.snapshot_load_ns", "ns", "lower", nil},
	{"placesvc.snapshot_placement_us", "us", "lower", nil},
	{"placesvc.snapshot_overflows_us", "us", "lower", nil},
	{"placesvc.snapshot_read_p50_us", "us", "lower", nil},
	{"placesvc.snapshot_read_p90_us", "us", "lower", nil},
	{"placesvc.snapshot_adoptions", "count", "higher", nil},
	{"placesvc.snapshot_rebuilds", "count", "lower", nil},
	{"core.place_s", "s", "lower", nil},
	{"core.order_s", "s", "lower", nil},
	{"core.table_s", "s", "lower", nil},
	{"core.index_probes_per_query", "ratio", "lower", nil},
	{"sim.new_s", "s", "lower", nil},
	{"sim.step_ms", "ms", "lower", nil},
	{"sim.intervals_per_s", "1/s", "higher", nil},
	{"sim.forecast_reports", "count", "higher", nil},
	{"sim.cvr_mean", "ratio", "lower", nil},
	{"sim.migrations", "count", "lower", nil},
	{"workload.step_share", "ratio", "lower", nil},
	{"queuing.forecast_solves", "count", "lower", nil},
	{"queuing.forecast_hit_ratio", "ratio", "higher", nil},
	// Micro-probes, independent of the workload.
	{"fitindex.first_fit_ns_1k", "ns", "lower", nil},
	{"fitindex.first_fit_ns_20k", "ns", "lower", nil},
	{"fitindex.set_ns", "ns", "lower", nil},
	{"fitindex.fill_us", "us", "lower", nil},
	{"queuing.mapcal_ns", "ns", "lower", nil},
	{"queuing.table_build_us", "us", "lower", nil},
	{"queuing.table_cache_hit_ns", "ns", "lower", nil},
	{"queuing.forecast_cold_ns", "ns", "lower", nil},
	{"queuing.forecast_hit_ns", "ns", "lower", nil},
	{"markov.pmf_row_ns", "ns", "lower", nil},
}

const runSeconds = 15

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func theManifest() manifest {
	return manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloadDefs {
		if workloadDefs[i].Name == name {
			return &workloadDefs[i]
		}
	}
	return nil
}
