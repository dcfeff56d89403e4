package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cloud"
	"repro/internal/markov"
	"repro/internal/metrics"
	"repro/internal/queuing"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// MigrationEvent records one live migration.
type MigrationEvent struct {
	Interval int
	VMID     int
	FromPM   int
	ToPM     int
	// PoweredOn reports whether the target PM had to be switched on for
	// this migration (it was hosting nothing).
	PoweredOn bool
}

// DemandSource supplies each VM's workload state per interval. The default
// is the ON-OFF fleet model (workload.FleetStates); workload.TraceReplay
// substitutes recorded traces for trace-driven evaluation.
//
// The map-valued signature is a constraint, not a choice: the benchmark's
// timedSource (bench/workloads.go) implements this interface and hides the
// concrete source, so the simulator cannot reach a source's dense column.
// Instead it scans the map once per interval into the ledger's own dense
// column (ledger.loadStates).
type DemandSource interface {
	// Step advances every VM one interval.
	Step(rng *rand.Rand)
	// States returns the live state map (VM id → state). The simulator
	// treats it as read-only and ranges over it once per interval: an id
	// absent from the map reads Off, and ids the simulator does not know
	// are ignored.
	States() map[int]markov.State
}

// Simulator advances a placement through time. It owns a clone of the
// initial placement, so the caller's placement is never mutated. All load
// accounting runs against the flat ledger (see ledger.go); the placement is
// kept in lock-step for topology queries and reporting.
type Simulator struct {
	cfg       Config
	placement *cloud.Placement
	fleet     DemandSource
	rng       *rand.Rand
	table     *queuing.MappingTable // only for TargetReservationAware
	tracer    telemetry.Tracer

	led    *ledger
	bounds []int           // shard → first owned PM position (see shard.go)
	scr    []*shardScratch // per-step scratch leases from scratchPool
	trig   []int           // reusable triggered-PM buffer

	migrationsPerStep *metrics.TimeSeries
	pmsInUse          *metrics.TimeSeries
	events            []MigrationEvent
	perVMMigrations   map[int]int
	powerOns          int

	// Forecast-hook accumulators (see forecast.go; inert when cfg.Forecast
	// is nil).
	fcCount int
	fcSum   float64
	fcMax   float64
	fcLast  *ForecastReport
	fcMemo  []fcMemoEntry // per-step (k, busy) → violation memo

	// Fault-injection state (see faults.go; inert when cfg.Faults is nil).
	downPMs     map[int]bool    // PMs currently crashed (ledger.down mirror)
	downSince   map[int]int     // crash interval of each down PM
	overshoot   map[int]float64 // per-VM demand multiplier this interval
	retries     []pendingMove   // failed migrations awaiting retry
	pendingFrom map[int]int     // source PM → in-flight retry count
	stranded    []strandedVM    // evacuees no PM could host yet
	faults      FaultReport     // running fault accounting
	evacLatency int             // Σ intervals stranded evacuees waited
	evacPlaced  int             // evacuees that found a host
}

// New builds a simulator over (a clone of) the given placement. table may be
// nil unless cfg.Policy is TargetReservationAware. The fleet starts with all
// VMs OFF — the paper's t = 0 condition, under which every strategy's
// initial placement satisfies Eq. (3).
func New(placement *cloud.Placement, table *queuing.MappingTable, cfg Config, rng *rand.Rand) (*Simulator, error) {
	fleet, err := workload.NewFleetStates(placement.VMs(), rng)
	if err != nil {
		return nil, err
	}
	fleet.AllOff()
	return NewWithSource(placement, table, cfg, fleet, rng)
}

// NewWithSource builds a simulator over a custom demand source — e.g. a
// workload.TraceReplay over recorded traces. The source must cover every
// placed VM.
func NewWithSource(placement *cloud.Placement, table *queuing.MappingTable, cfg Config, source DemandSource, rng *rand.Rand) (*Simulator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if placement.NumVMs() == 0 {
		return nil, fmt.Errorf("sim: placement has no VMs")
	}
	if cfg.Policy == TargetReservationAware && table == nil {
		return nil, fmt.Errorf("sim: TargetReservationAware needs a mapping table")
	}
	if cfg.Forecast != nil && table == nil {
		return nil, fmt.Errorf("sim: Forecast needs a mapping table (chain parameters and reservations)")
	}
	states := source.States()
	for _, vm := range placement.VMs() {
		if _, ok := states[vm.ID]; !ok {
			return nil, fmt.Errorf("sim: demand source does not cover VM %d", vm.ID)
		}
	}
	clone := placement.Clone()
	s := &Simulator{
		cfg:               cfg,
		placement:         clone,
		fleet:             source,
		rng:               rng,
		table:             table,
		tracer:            telemetry.OrNop(cfg.Tracer),
		led:               newLedger(clone.PMs(), cfg.Window),
		migrationsPerStep: metrics.NewTimeSeries("migrations"),
		pmsInUse:          metrics.NewTimeSeries("pms_in_use"),
		perVMMigrations:   make(map[int]int),
		downPMs:           make(map[int]bool),
		downSince:         make(map[int]int),
		overshoot:         make(map[int]float64),
		pendingFrom:       make(map[int]int),
	}
	s.bounds = shardBounds(len(s.led.pms), cfg.Shards)
	s.led.seed(clone, states)
	return s, nil
}

// Report summarises a finished run.
type Report struct {
	Intervals       int
	TotalMigrations int
	// FinalPMs is the number of PMs in use at the end of the evaluation
	// period — the paper's energy-consumption proxy (Fig. 9b).
	FinalPMs int
	// PowerOns counts migrations that had to switch on an idle PM.
	PowerOns int
	// CVR holds the per-PM capacity-violation ratios over the whole run
	// (Fig. 6).
	CVR *metrics.CVRMeter
	// MigrationsOverTime gives migrations per interval (Fig. 10).
	MigrationsOverTime *metrics.TimeSeries
	// PMsOverTime gives PMs in use per interval.
	PMsOverTime *metrics.TimeSeries
	// Events lists every migration in order.
	Events []MigrationEvent
	// PerVMMigrations counts migrations per VM id.
	PerVMMigrations map[int]int
	// VMViolationRatio is the fraction of hosted intervals each VM spent on
	// a capacity-violated PM — the per-tenant SLA view of CVR.
	VMViolationRatio map[int]float64
	// Faults summarises injected faults and the degraded behaviour under them
	// (downtime intervals, evacuation latency, degraded placements). Nil when
	// the run had no fault plan.
	Faults *FaultReport
	// Forecasts digests the transient forecast stream. Nil when the run had
	// no ForecastConfig, so bare Reports are unchanged.
	Forecasts *ForecastDigest
}

// CycleMigration reports whether the run exhibits the paper's cycle-migration
// pathology: sustained migration churn after the initial settling phase
// ("migrations occur constantly inside the system while the number of PMs
// used keeps at a low level"). The detector flags a run whose second-half
// migration count is at least max(5, 10% of intervals) — QUEUE's occasional
// trickle stays far below, RB's constant churn far above.
func (r *Report) CycleMigration() bool {
	if r.MigrationsOverTime.Len() == 0 {
		return false
	}
	half := r.MigrationsOverTime.Len() / 2
	late := 0.0
	for i := half; i < r.MigrationsOverTime.Len(); i++ {
		_, v := r.MigrationsOverTime.At(i)
		late += v
	}
	threshold := math.Max(5, 0.1*float64(r.Intervals))
	return late >= threshold
}

// MaxPerVMMigrations returns the largest per-VM migration count — cycling
// VMs bounce repeatedly, stable systems stay at ≤ 1.
func (r *Report) MaxPerVMMigrations() int {
	max := 0
	for _, n := range r.PerVMMigrations {
		if n > max {
			max = n
		}
	}
	return max
}

// Run executes the configured number of intervals and returns the report.
func (s *Simulator) Run() (*Report, error) {
	for t := 0; t < s.cfg.Intervals; t++ {
		if err := s.step(t); err != nil {
			return nil, err
		}
	}
	return s.report(), nil
}

// report assembles the final Report from the simulator's accumulated state.
func (s *Simulator) report() *Report {
	return &Report{
		Intervals:          s.cfg.Intervals,
		TotalMigrations:    len(s.events),
		FinalPMs:           s.placement.NumUsedPMs(),
		PowerOns:           s.powerOns,
		CVR:                s.cvrMeter(),
		MigrationsOverTime: s.migrationsPerStep,
		PMsOverTime:        s.pmsInUse,
		Events:             s.events,
		PerVMMigrations:    s.perVMMigrations,
		VMViolationRatio:   s.vmViolationRatios(),
		Faults:             s.faultReport(),
		Forecasts:          s.forecastDigest(),
	}
}

// cvrMeter builds the run's CVR meter from the ledger's per-PM counters.
func (s *Simulator) cvrMeter() *metrics.CVRMeter {
	l := s.led
	m := metrics.NewCVRMeter()
	for pos, observed := range l.pmObserved {
		if observed > 0 {
			m.Add(l.pms[pos].ID, int(observed), int(l.pmViolation[pos]))
		}
	}
	return m
}

// vmViolationRatios derives each VM's violated-time fraction.
func (s *Simulator) vmViolationRatios() map[int]float64 {
	out := make(map[int]float64, len(s.led.vmIDs))
	for vi, id := range s.led.vmIDs {
		if observed, violated := s.led.vmCounts(vi); observed > 0 {
			out[id] = float64(violated) / float64(observed)
		}
	}
	return out
}

// WorstVMViolation returns the highest per-VM violation ratio and the VM it
// belongs to (-1 when nothing was observed) — the tenant with the worst SLA.
func (r *Report) WorstVMViolation() (vmID int, ratio float64) {
	vmID = -1
	// Break ties toward the smaller id so the answer doesn't depend on map
	// iteration order.
	for id, v := range r.VMViolationRatio {
		if v > ratio || vmID == -1 || (v == ratio && id < vmID) {
			vmID, ratio = id, v
		}
	}
	return vmID, ratio
}

// step advances one interval: workload transition, demand sync into the
// ledger, fault injection (PM crashes, evacuations, retry execution), load
// measurement, and (if enabled) migrations for PMs whose windowed CVR
// breached ρ. The sync and measurement passes run sharded (see shard.go);
// everything that mutates topology stays sequential.
func (s *Simulator) step(t int) error {
	traced := s.tracer.Enabled()
	var stepStart time.Time
	if traced {
		stepStart = time.Now()
	}
	s.fleet.Step(s.rng)
	states := s.fleet.States()

	// Overshoot multipliers first (they scale demand), then the demand sync:
	// the fault phase below routes evacuees through the target trees, which
	// must reflect this interval's loads.
	s.computeOvershoot(t)
	scr := s.borrowScratches()
	defer s.releaseScratches()
	if err := s.syncLoads(states, scr); err != nil {
		return err
	}

	if err := s.applyFaults(t); err != nil {
		return err
	}
	if err := s.retryStranded(t); err != nil {
		return err
	}

	// Measure every powered-on PM, one shard per worker.
	s.runSharded(func(shard, lo, hi int) {
		if traced {
			t0 := time.Now()
			s.measureRange(lo, hi, scr[shard])
			scr[shard].elapsedNs = time.Since(t0).Nanoseconds()
			return
		}
		s.measureRange(lo, hi, scr[shard])
	})
	violations := 0
	triggered := s.trig[:0]
	for _, sc := range scr {
		violations += sc.violations
		triggered = append(triggered, sc.triggered...)
	}
	s.trig = triggered
	// Overhead charges last one interval — except straggler carry-over, which
	// lands for one more.
	s.led.rotateOverhead()

	migrations, stepPowerOns := 0, 0
	retried, err := s.processRetries(t)
	if err != nil {
		return err
	}
	for _, ev := range retried {
		s.events = append(s.events, ev)
		s.perVMMigrations[ev.VMID]++
		migrations++
		if ev.PoweredOn {
			s.powerOns++
			stepPowerOns++
		}
		if s.tracer.Enabled() {
			s.tracer.Emit(telemetry.MigrationTraceEvent{
				Interval: t, VMID: ev.VMID, FromPM: ev.FromPM, ToPM: ev.ToPM,
				PoweredOn: ev.PoweredOn,
			})
		}
	}
	sort.Ints(triggered)
	for _, pmID := range triggered {
		ev, ok, err := s.migrateFrom(t, pmID)
		if err != nil {
			return err
		}
		if ok {
			s.events = append(s.events, ev)
			s.perVMMigrations[ev.VMID]++
			migrations++
			if ev.PoweredOn {
				s.powerOns++
				stepPowerOns++
			}
			if s.tracer.Enabled() {
				s.tracer.Emit(telemetry.MigrationTraceEvent{
					Interval: t, VMID: ev.VMID, FromPM: ev.FromPM, ToPM: ev.ToPM,
					PoweredOn: ev.PoweredOn,
				})
			}
		}
	}
	s.migrationsPerStep.Append(t, float64(migrations))
	s.pmsInUse.Append(t, float64(s.placement.NumUsedPMs()))
	// Forecast after migrations settle, so the look-ahead conditions on the
	// interval's final placement. Read-only: no RNG draws, no ledger writes.
	if s.cfg.Forecast != nil && t%s.cfg.Forecast.Every == 0 {
		if err := s.forecastStep(t); err != nil {
			return err
		}
	}
	if traced {
		ev := telemetry.StepEvent{
			Interval:   t,
			Violations: violations,
			Migrations: migrations,
			PowerOns:   stepPowerOns,
			PMsInUse:   s.placement.NumUsedPMs(),
		}
		if s.shardCount() > 1 {
			ev.Shards = s.shardCount()
		}
		// Occupancy tallies from the sync pass and the per-shard / whole-step
		// timings — the streaming-probe inputs (internal/obs).
		var shardMax int64
		for _, sc := range scr {
			ev.VMs += sc.vms
			ev.OnVMs += sc.on
			ev.OffOn += sc.offOn
			ev.OnOff += sc.onOff
			if sc.elapsedNs > shardMax {
				shardMax = sc.elapsedNs
			}
		}
		ev.ShardMaxNs = shardMax
		ev.DurationNs = time.Since(stepStart).Nanoseconds()
		s.tracer.Emit(ev)
	}
	return nil
}

// effLoad returns the PM's current effective load — Σ cached demand of its
// hosted VMs plus any migration overhead charged this interval — straight
// from the ledger, replacing the old per-call pmLoad recomputation.
func (s *Simulator) effLoad(pmID int) float64 {
	return s.led.eff[s.led.pmPos[pmID]]
}

// attachVM assigns the VM in both the placement and the ledger, folding the
// given current demand into the target's load. st and boost must be the
// workload state and overshoot multiplier the demand was computed from (see
// ledger.place).
func (s *Simulator) attachVM(vm cloud.VM, pmID int, st markov.State, boost, demand float64) error {
	if err := s.placement.Assign(vm, pmID); err != nil {
		return err
	}
	s.led.place(vm, pmID, st, boost, demand)
	return nil
}

// boostOf returns the overshoot multiplier vmDemand bakes into this
// interval's demand for the VM — the boost value syncRange would cache.
func (s *Simulator) boostOf(vmID int) float64 {
	if f, ok := s.overshoot[vmID]; ok {
		return f
	}
	return 1
}

// ledgerWorkload returns the cached workload state and boost the VM's
// current ledger demand was derived from, for re-attaching a VM at its
// unchanged demand (plan execution and rollback).
func (s *Simulator) ledgerWorkload(vmID int) (markov.State, float64) {
	vi := s.led.indexOf(vmID)
	return s.led.vmState[vi], s.led.vmBoost[vi]
}

// detachVM removes the VM from both the placement and the ledger, returning
// its former host.
func (s *Simulator) detachVM(vmID int) (int, error) {
	pmID, err := s.placement.Remove(vmID)
	if err != nil {
		return 0, err
	}
	s.led.displace(vmID)
	return pmID, nil
}

// ledgerDemand returns the VM's demand as currently folded into the ledger.
func (s *Simulator) ledgerDemand(vmID int) float64 {
	return s.led.vmDem[s.led.indexOf(vmID)]
}

// resetWindows clears every PM's violation window (after a reconsolidation
// plan rearranged the fleet).
func (s *Simulator) resetWindows() {
	s.led.resetWindows()
}

// vmDemand returns the VM's demand this interval — the exact model level, or
// the request-modulated level under RequestNoise — scaled by any injected
// overshoot beyond the declared reservation.
func (s *Simulator) vmDemand(vm cloud.VM, state markov.State) (float64, error) {
	level := vm.Demand(state)
	if f, ok := s.overshoot[vm.ID]; ok {
		level *= f
	}
	if !s.cfg.RequestNoise || level == 0 {
		return level, nil
	}
	users := int(math.Round(level * s.cfg.UsersPerUnit))
	if users <= 0 {
		return level, nil
	}
	actual, err := workload.RequestCount(users, s.cfg.IntervalSeconds, s.cfg.ThinkTime, s.rng)
	if err != nil {
		return 0, err
	}
	expected := float64(users) * s.cfg.IntervalSeconds / s.cfg.ThinkTime.EffectiveMean()
	return level * float64(actual) / expected, nil
}

// migrateFrom evicts one VM from an overloaded PM to the scheduler's chosen
// target. It returns ok=false when no victim or no feasible target exists
// (the VM then stays put — the system is saturated), or when the injected
// fault layer fails the attempt (the move then enters the retry queue).
func (s *Simulator) migrateFrom(t, fromPM int) (MigrationEvent, bool, error) {
	if s.pendingFrom[fromPM] > 0 {
		return MigrationEvent{}, false, nil // a move from this PM is already in flight
	}
	victim, ok := s.pickVictim(fromPM)
	if !ok {
		return MigrationEvent{}, false, nil
	}
	st := s.led.stateOf(victim.ID)
	demand, err := s.vmDemand(victim, st)
	if err != nil {
		return MigrationEvent{}, false, err
	}
	target, poweredOn, ok := s.pickTarget(fromPM, victim, demand)
	if !ok {
		return MigrationEvent{}, false, nil
	}
	if s.migrationFails(t, victim.ID, fromPM, 1) {
		// The failed attempt still burned CPU on the source; retry with
		// backoff under the per-move deadline.
		s.led.charge(s.led.pmPos[fromPM], demand*s.cfg.MigrationOverhead)
		s.scheduleRetry(t, victim, fromPM, 1, t+s.cfg.MoveDeadline)
		return MigrationEvent{}, false, nil
	}
	if _, err := s.detachVM(victim.ID); err != nil {
		return MigrationEvent{}, false, err
	}
	if err := s.attachVM(victim, target, st, s.boostOf(victim.ID), demand); err != nil {
		return MigrationEvent{}, false, err
	}
	// The source pays the migration's CPU overhead next interval, and both
	// windows restart so one breach does not double-trigger.
	s.chargeMigration(t, fromPM, target, victim.ID, demand)
	return MigrationEvent{Interval: t, VMID: victim.ID, FromPM: fromPM, ToPM: target, PoweredOn: poweredOn}, true, nil
}

// pickVictim selects the VM to evict: the spiking VM with the largest
// current demand (evicting it relieves the overflow fastest); if none is ON,
// the largest VM overall. A PM hosting a single VM keeps it — migrating the
// only tenant cannot reduce load pressure anywhere it goes.
func (s *Simulator) pickVictim(pmID int) (cloud.VM, bool) {
	l := s.led
	hosted := l.hosted[l.pmPos[pmID]]
	if len(hosted) <= 1 {
		return cloud.VM{}, false
	}
	var best cloud.VM
	bestDemand, bestOn := -1.0, false
	for _, vi := range hosted {
		on := l.vmState[vi] == markov.On
		d := l.vmSpec[vi].Demand(l.vmState[vi])
		if (on && !bestOn) || (on == bestOn && d > bestDemand) {
			best, bestDemand, bestOn = l.vmSpec[vi], d, on
		}
	}
	return best, true
}

// pickTarget chooses the migration target. Powered-on PMs are preferred in
// ascending order of *current* load (idle deception: the estimate ignores
// burstiness); if none fits, the lowest-id off PM that can host the VM is
// powered on. ok=false means the whole pool is saturated. The old
// sort-every-candidate scan is now an ordered walk of the ledger's trees:
// onTree yields powered-on PMs by (load, id) lazily, idleTree finds the
// first idle PM with enough raw capacity in O(log m) per probe.
func (s *Simulator) pickTarget(fromPM int, vm cloud.VM, demand float64) (target int, poweredOn, ok bool) {
	l := s.led
	found := -1
	l.scratch = l.onTree.Ascend(l.scratch, func(pos int, eff float64) bool {
		pmID := l.pms[pos].ID
		if pmID == fromPM {
			return true
		}
		if s.targetAdmits(pmID, eff, vm, demand) {
			found = pos
			return false
		}
		return true
	})
	if found >= 0 {
		return l.pms[found].ID, false, true
	}
	// Power on the lowest-id idle PM that can host the VM. The tree prunes
	// by raw capacity; targetAdmits re-verifies exactly (including the
	// reservation-aware constraint), so a pruned PM is one the old linear
	// scan would also have rejected.
	for from := 0; ; {
		pos := l.idleTree.FirstAtLeast(from, demand-1e-9)
		if pos < 0 {
			return 0, false, false
		}
		if pmID := l.pms[pos].ID; s.targetAdmits(pmID, 0, vm, demand) {
			return pmID, true, true
		}
		from = pos + 1
	}
}

// targetAdmits applies the policy's admission test for a migration target.
func (s *Simulator) targetAdmits(pmID int, currentLoad float64, vm cloud.VM, demand float64) bool {
	pm, _ := s.placement.PM(pmID)
	if currentLoad+demand > pm.Capacity+1e-9 {
		return false
	}
	if s.cfg.Policy == TargetReservationAware {
		k := s.placement.CountOn(pmID)
		if k+1 > s.table.MaxVMs() {
			return false
		}
		blockSize := math.Max(vm.Re, s.placement.MaxRe(pmID))
		footprint := s.placement.SumRb(pmID) + vm.Rb + blockSize*float64(s.table.Blocks(k+1))
		if footprint > pm.Capacity+1e-9 {
			return false
		}
	}
	return true
}
