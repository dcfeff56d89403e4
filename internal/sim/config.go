// Package sim is the discrete-time datacenter simulator that stands in for
// the paper's Xen Cloud Platform testbed (§V). Each interval (the paper's
// σ = 30 s information-update period) every VM's ON-OFF chain advances, local
// resizing adjusts allocations to the new demand for free (§I: "neglectable
// time and resource overheads"), and PMs whose recent capacity-violation
// ratio exceeds ρ evict one VM via live migration to a PM the scheduler
// believes is idle. The scheduler's idleness estimate is based on *current*
// load only — the burstiness-unaware judgement whose failure mode the paper
// names "idle deception", which produces the "cycle migration" churn of
// Fig. 9/10 under RB packing.
package sim

import (
	"fmt"
	"math"

	"repro/internal/telemetry"
	"repro/internal/workload"
)

// FaultPlan injects deterministic failures into a run. internal/faults
// compiles JSON schedules into plans satisfying this interface; the
// simulator consults it every interval. Implementations must be pure
// functions of their arguments (no internal RNG state) so that a run with a
// fixed seed and plan replays bit-identically.
type FaultPlan interface {
	// PMDown reports whether the PM is crashed at the interval. The
	// simulator derives crash/recovery transitions from consecutive answers.
	PMDown(pmID, interval int) bool
	// MigrationFails reports whether the numbered migration attempt
	// (1 = first try) for the VM fails at the interval.
	MigrationFails(interval, vmID, attempt int) bool
	// MigrationStraggles reports whether a succeeding migration runs long,
	// charging the source PM its CPU overhead for an extra interval.
	MigrationStraggles(interval, vmID int) bool
	// DemandOvershoot returns the multiplicative demand factor for the VM at
	// the interval (1 = no fault; > 1 pushes demand beyond the declared R_p).
	DemandOvershoot(interval, vmID int) float64
}

// TargetPolicy selects how the dynamic scheduler picks a migration target.
type TargetPolicy int

const (
	// TargetLowestLoad picks the powered-on PM with the lowest current
	// instantaneous load that can fit the VM's current demand — the
	// burstiness-unaware policy of a production scheduler, vulnerable to
	// idle deception.
	TargetLowestLoad TargetPolicy = iota
	// TargetReservationAware additionally requires the target to satisfy
	// Eq. (17) with the mapping table after accepting the VM — the
	// burstiness-aware extension.
	TargetReservationAware
)

// Config parameterises one simulation run.
type Config struct {
	// Intervals is the evaluation period in σ-steps (the paper runs 100σ).
	Intervals int
	// Rho is the CVR threshold ρ that triggers a migration when exceeded.
	Rho float64
	// Window is the sliding-window length (in intervals) over which each
	// PM's recent CVR is measured against Rho. The paper imposes ρ "rather
	// than conducting migration upon PM's capacity overflow ... to tolerate
	// minor fluctuation"; a window of w intervals triggers after more than
	// ⌈ρ·w⌉ violations in the last w. Zero defaults to 10.
	Window int
	// EnableMigration turns the dynamic scheduler on. Off reproduces the
	// §V-C "without live migration" setting where only CVR is measured.
	EnableMigration bool
	// MigrationOverhead is the extra load, as a fraction of the migrated
	// VM's current demand, charged to the *source* PM for the interval the
	// migration runs — the "noticeable CPU usage on the host PM" of [9].
	MigrationOverhead float64
	// Policy selects the migration-target policy.
	Policy TargetPolicy
	// RequestNoise modulates each VM's demand by the web-request renewal
	// process of §V-D instead of the exact R_b/R_p levels: demand =
	// level · actual/expected requests. Requires UsersPerUnit > 0.
	//
	// Noise is drawn once per hosted VM per interval during the demand
	// sync, and every consumer (measurement, target selection, admission)
	// reads that cached value. The pre-ledger engine redrew noise on every
	// load query, so noisy fixed-seed runs are NOT replay-compatible with
	// runs recorded before the fleet-scale engine; noiseless runs are.
	RequestNoise bool
	// UsersPerUnit converts demand units to user populations for the
	// request generator (Table I expresses demand directly in users, so 1;
	// Fig. 5-style units of ~2..20 need a larger factor).
	UsersPerUnit float64
	// IntervalSeconds is σ in seconds (only the request generator uses it;
	// zero defaults to 30, the paper's setting).
	IntervalSeconds float64
	// ThinkTime parameterises the request generator; the zero value
	// defaults to the paper's Exp(1) clamped at 0.1 s.
	ThinkTime workload.ThinkTime
	// Tracer receives runtime telemetry: one StepEvent per interval
	// (violations, migrations, power-ons, PMs in use) and one
	// MigrationTraceEvent per executed migration. Nil disables
	// instrumentation.
	Tracer telemetry.Tracer
	// Faults injects deterministic failures (PM crashes, flaky migrations,
	// demand overshoot). Nil runs fault-free.
	Faults FaultPlan
	// MaxRetries bounds how many times a failed migration is retried before
	// the move is abandoned (the VM stays put). Zero defaults to 3; negative
	// disables retries.
	MaxRetries int
	// RetryBackoff is the base delay, in intervals, before the first retry of
	// a failed migration; each subsequent retry doubles it. Zero defaults to 1.
	RetryBackoff int
	// MoveDeadline is the per-move deadline in intervals: a pending retry older
	// than this is abandoned even if attempts remain. Zero defaults to 16.
	MoveDeadline int
	// Forecast enables the per-interval transient forecast hook (see
	// forecast.go): closed-form busy-blocks look-ahead per powered-on PM,
	// exposed through ForecastConfig.OnReport and Report.Forecasts. Requires
	// a mapping table (it supplies the chain parameters and reservations).
	// Nil disables the hook; the Report is then bit-identical to earlier
	// engines.
	Forecast *ForecastConfig
	// Shards splits two per-interval passes over contiguous PM ranges, one
	// worker per shard: the demand-sync walk (compare each hosted VM's cached
	// state with the dense new-state column, refold the PMs that changed) and
	// the O(PMs) measurement pass (violation check, CVR counters, sliding
	// window, trigger). Everything else in an interval is sequential — the
	// source's Step, the one scan of its state map into the new-state column,
	// tree refreshes, faults, migrations and the forecast — and since the
	// dense-column engine that sequential part is most of a step, so expect
	// little from this knob (ROADMAP "Make the parallel paths parallel" has
	// the figures). Zero or one runs on the caller's goroutine. Every PM (and
	// the VMs it hosts) is owned by exactly one shard and per-shard results
	// merge in shard-index order, so a run is bit-identical for every shard
	// count. Incompatible with RequestNoise,
	// whose demand draws consume the shared RNG in placement order (and
	// whose one-draw-per-VM-per-interval caching already diverges from
	// pre-ledger runs — see the RequestNoise comment).
	Shards int
}

// withDefaults fills zero values and validates.
func (c Config) withDefaults() (Config, error) {
	if c.Intervals <= 0 {
		return c, fmt.Errorf("sim: Intervals = %d, want > 0", c.Intervals)
	}
	if math.IsNaN(c.Rho) || c.Rho < 0 || c.Rho >= 1 {
		return c, fmt.Errorf("sim: Rho = %v outside [0,1)", c.Rho)
	}
	if c.Window == 0 {
		c.Window = 10
	}
	if c.Window < 0 {
		return c, fmt.Errorf("sim: Window = %d, want ≥ 0", c.Window)
	}
	if math.IsNaN(c.MigrationOverhead) || math.IsInf(c.MigrationOverhead, 0) || c.MigrationOverhead < 0 {
		return c, fmt.Errorf("sim: MigrationOverhead = %v, want finite and ≥ 0", c.MigrationOverhead)
	}
	if c.IntervalSeconds == 0 {
		c.IntervalSeconds = 30
	}
	if math.IsNaN(c.IntervalSeconds) || math.IsInf(c.IntervalSeconds, 0) || c.IntervalSeconds < 0 {
		return c, fmt.Errorf("sim: IntervalSeconds = %v, want finite and > 0", c.IntervalSeconds)
	}
	if c.ThinkTime == (workload.ThinkTime{}) {
		c.ThinkTime = workload.PaperThinkTime()
	}
	if c.RequestNoise {
		if math.IsNaN(c.UsersPerUnit) || math.IsInf(c.UsersPerUnit, 0) || c.UsersPerUnit <= 0 {
			return c, fmt.Errorf("sim: RequestNoise requires finite UsersPerUnit > 0, got %v", c.UsersPerUnit)
		}
		if err := c.ThinkTime.Validate(); err != nil {
			return c, err
		}
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0 // negative disables retries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 1
	}
	if c.RetryBackoff < 0 {
		return c, fmt.Errorf("sim: RetryBackoff = %d, want ≥ 0", c.RetryBackoff)
	}
	if c.MoveDeadline == 0 {
		c.MoveDeadline = 16
	}
	if c.MoveDeadline < 0 {
		return c, fmt.Errorf("sim: MoveDeadline = %d, want ≥ 0", c.MoveDeadline)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("sim: Shards = %d, want ≥ 0", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards > 1 && c.RequestNoise {
		return c, fmt.Errorf("sim: RequestNoise draws from the shared RNG in placement order and cannot run sharded; set Shards ≤ 1")
	}
	if c.Forecast != nil {
		fc, err := c.Forecast.withDefaults()
		if err != nil {
			return c, err
		}
		c.Forecast = &fc // copy: never mutate the caller's config
	}
	return c, nil
}

// The per-PM violation sliding windows live in the ledger, flattened into
// parallel columns (winBuf/winNext/winFilled/winViol) — see ledger.go.
