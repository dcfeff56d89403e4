// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is registered by the paper's artifact id
// (fig1, tab1, fig5 … fig10) and prints the same quantities the original
// figure plots, as plain-text tables and sparkline series.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/admission"
	"repro/internal/faults"
	"repro/internal/queuing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// Options configures an experiment run. Zero fields take the paper's
// defaults; tests shrink the scale knobs to keep runs fast.
type Options struct {
	// Out receives the rendered tables. Required.
	Out io.Writer
	// Seed makes runs reproducible.
	Seed int64
	// Rho is the CVR threshold ρ (default 0.01).
	Rho float64
	// D is the per-PM VM cap d (default 16).
	D int
	// POn and POff are the workload switch probabilities (defaults 0.01,
	// 0.09 — "spikes usually occur with low frequency and last shortly").
	POn, POff float64
	// VMCounts is the fleet-size sweep for fig5/fig7 (default 50..400).
	VMCounts []int
	// Trials is the number of repetitions for fig9 (default 10, as in §V-D).
	Trials int
	// Intervals is the evaluation period for migration experiments
	// (default 100, the paper's 100σ).
	Intervals int
	// SimIntervals is the no-migration CVR-measurement horizon for fig6
	// (default 2000).
	SimIntervals int
	// Delta is the RB-EX reserve fraction (default 0.3).
	Delta float64
	// TraceLen is the sample-trace length for fig1/fig8 (default 200).
	TraceLen int
	// Workers bounds the goroutines used for repeated-trial experiments
	// (fig9). 0 uses all cores; 1 forces sequential execution. Results are
	// deterministic regardless — each trial derives its own seed.
	Workers int
	// Tracer receives decision-level telemetry from instrumented experiments
	// (MapCal solves, placement decisions, simulator steps). Parallel trial
	// workers share it, so the sink must be safe for concurrent Emit calls
	// (telemetry.JSONL and the metrics bridge are). Nil disables tracing.
	Tracer telemetry.Tracer
	// Faults overrides the fault schedule used by the faultcvr experiment
	// (default: faults.CrashTest — the 5%-PM-crash scenario) and, when set,
	// composes a crash schedule into admissioncvr. Other experiments ignore
	// it.
	Faults *faults.Schedule
	// Admission overrides the admission-policy config used by the
	// admissioncvr experiment (default: a 0.9/0.8 occupancy hysteresis
	// gate). Other experiments ignore it.
	Admission *admission.Config
	// Tables, when set, deduplicates the mapping-table build every experiment
	// starts with: experiments sharing a cache (and the same (d, p_on, p_off,
	// ρ) cohort) solve the table once and share the instance — including with
	// core.Online and placesvc services pointed at the same cache. Nil keeps
	// the historical build-per-experiment behaviour, which tracing tests rely
	// on (a cache hit emits no SolveEvents).
	Tables *queuing.TableCache
}

func (o Options) withDefaults() (Options, error) {
	if o.Out == nil {
		return o, fmt.Errorf("experiments: Options.Out is required")
	}
	if o.Rho == 0 {
		o.Rho = 0.01
	}
	if o.D == 0 {
		o.D = 16
	}
	if o.POn == 0 {
		o.POn = 0.01
	}
	if o.POff == 0 {
		o.POff = 0.09
	}
	if len(o.VMCounts) == 0 {
		o.VMCounts = []int{50, 100, 200, 400}
	}
	if o.Trials == 0 {
		o.Trials = 10
	}
	if o.Intervals == 0 {
		o.Intervals = 100
	}
	if o.SimIntervals == 0 {
		o.SimIntervals = 2000
	}
	if o.Delta == 0 {
		o.Delta = 0.3
	}
	if o.TraceLen == 0 {
		o.TraceLen = 200
	}
	if o.Rho < 0 || o.Rho >= 1 {
		return o, fmt.Errorf("experiments: rho = %v outside [0,1)", o.Rho)
	}
	if o.D < 1 || o.Trials < 1 || o.Intervals < 1 || o.SimIntervals < 1 || o.TraceLen < 1 {
		return o, fmt.Errorf("experiments: non-positive scale parameter")
	}
	for _, n := range o.VMCounts {
		if n < 1 {
			return o, fmt.Errorf("experiments: VM count %d, want ≥ 1", n)
		}
	}
	if o.Delta < 0 || o.Delta >= 1 {
		return o, fmt.Errorf("experiments: delta = %v outside [0,1)", o.Delta)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("experiments: workers = %d, want ≥ 0", o.Workers)
	}
	return o, nil
}

// mappingTable builds the options' homogeneous mapping table, through the
// Tables cache when one is configured.
func (o Options) mappingTable() (*queuing.MappingTable, error) {
	build := func() (*queuing.MappingTable, error) {
		return queuing.NewMappingTableTraced(o.D, o.POn, o.POff, o.Rho, o.Tracer)
	}
	if o.Tables == nil {
		return build()
	}
	return o.Tables.Get(o.D, o.POn, o.POff, o.Rho, build)
}

// fleetParams builds the Fig. 5 fleet parameters for a pattern with the
// options' switch probabilities.
func (o Options) fleetParams(pattern workload.Pattern, n int) workload.FleetParams {
	p := workload.DefaultFleetParams(pattern, n)
	p.POn, p.POff = o.POn, o.POff
	return p
}
