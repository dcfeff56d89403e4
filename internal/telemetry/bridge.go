package telemetry

// metricsTracer derives registry instruments from the trace stream, so every
// instrumented call site feeds both the JSONL trace and the /metrics endpoint
// through one Emit.
type metricsTracer struct {
	reg *Registry

	solveDuration *Timer
	solves        *Counter
	solveFast     *Counter
	solveFallback *Counter

	accepted *Counter
	rejected *Counter

	indexQueries *Counter
	indexProbes  *Counter
	indexHits    *Counter

	steps      *Counter
	violations *Counter
	migrations *Counter
	powerOns   *Counter
	pmsInUse   *Gauge
	shards     *Gauge

	planned  *Counter
	recons   *Counter
	released *Counter

	faultsInjected *Counter
	migRetries     *Counter
	migAbandoned   *Counter
	evacuations    *Counter
	degraded       *Counter
	rollbacks      *Counter
}

// NewMetrics returns a tracer that updates reg from every event it sees:
// mapcal_solve_duration_seconds (histogram), mapcal_solves_total,
// mapcal_fastpath_solves_total vs
// mapcal_fallback_solves_total (analytic solve paths vs matrix-backed
// solvers), placement_decisions_total{decision=...}, the placement_index_*
// counters (queries/probes/hits of the indexed first-fit), sim_steps_total /
// sim_violations_total / sim_migrations_total / sim_power_ons_total,
// sim_pms_in_use / sim_shards (gauges), the reconsolidation counters, and the fault layer
// (faults_injected_total, migration_retries_total, evacuations_total,
// degraded_placements_total, reconsolidation_rollbacks_total).
func NewMetrics(reg *Registry) Tracer {
	return &metricsTracer{
		reg:           reg,
		solveDuration: reg.Timer("mapcal_solve_duration_seconds"),
		solves:        reg.Counter("mapcal_solves_total"),
		solveFast:     reg.Counter("mapcal_fastpath_solves_total"),
		solveFallback: reg.Counter("mapcal_fallback_solves_total"),
		accepted:      reg.Counter(`placement_decisions_total{decision="accept"}`),
		rejected:      reg.Counter(`placement_decisions_total{decision="reject"}`),
		indexQueries:  reg.Counter("placement_index_queries_total"),
		indexProbes:   reg.Counter("placement_index_probes_total"),
		indexHits:     reg.Counter("placement_index_hits_total"),
		steps:         reg.Counter("sim_steps_total"),
		violations:    reg.Counter("sim_violations_total"),
		migrations:    reg.Counter("sim_migrations_total"),
		powerOns:      reg.Counter("sim_power_ons_total"),
		pmsInUse:      reg.Gauge("sim_pms_in_use"),
		shards:        reg.Gauge("sim_shards"),
		planned:       reg.Counter("reconsolidation_moves_total"),
		recons:        reg.Counter("reconsolidation_runs_total"),
		released:      reg.Counter("reconsolidation_released_pms_total"),

		faultsInjected: reg.Counter("faults_injected_total"),
		migRetries:     reg.Counter("migration_retries_total"),
		migAbandoned:   reg.Counter("migration_retries_abandoned_total"),
		evacuations:    reg.Counter("evacuations_total"),
		degraded:       reg.Counter("degraded_placements_total"),
		rollbacks:      reg.Counter("reconsolidation_rollbacks_total"),
	}
}

// Enabled returns true.
func (m *metricsTracer) Enabled() bool { return true }

// Emit folds the event into the registry.
func (m *metricsTracer) Emit(e Event) {
	switch ev := e.(type) {
	case SolveEvent:
		m.solves.Inc()
		m.solveDuration.Observe(ev.Duration)
		if ev.FastPathSolver() {
			m.solveFast.Inc()
		} else {
			m.solveFallback.Inc()
		}
	case PlacementEvent:
		if ev.Accepted {
			m.accepted.Inc()
		} else {
			m.rejected.Inc()
		}
	case PlaceIndexEvent:
		m.indexQueries.Add(ev.Queries)
		m.indexProbes.Add(ev.Probes)
		m.indexHits.Add(ev.Hits)
	case StepEvent:
		m.steps.Inc()
		m.violations.Add(uint64(ev.Violations))
		m.migrations.Add(uint64(ev.Migrations))
		m.powerOns.Add(uint64(ev.PowerOns))
		m.pmsInUse.Set(float64(ev.PMsInUse))
		if ev.Shards > 0 {
			m.shards.Set(float64(ev.Shards))
		}
	case MigrationTraceEvent:
		// Counted via StepEvent (reactive) or ReconsolidateEvent (planned);
		// the per-move record is for the trace, not the aggregates.
	case ReconsolidateEvent:
		m.recons.Inc()
		m.planned.Add(uint64(ev.Moves))
		m.released.Add(uint64(ev.ReleasedPMs))
	case FaultEvent:
		switch {
		case ev.Injected():
			m.faultsInjected.Inc()
		case ev.Type == FaultMigrationRetry:
			m.migRetries.Inc()
		case ev.Type == FaultRetryAbandoned:
			m.migAbandoned.Inc()
		case ev.Type == FaultDegradedPlacement:
			m.degraded.Inc()
		}
	case EvacuationEvent:
		m.evacuations.Add(uint64(ev.VMs))
	case RollbackEvent:
		m.rollbacks.Inc()
	}
}
