package sim

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/telemetry"
)

// This file is the simulator half of the fault-injection layer: it consumes a
// FaultPlan each interval and turns its answers into state changes — PM crash
// and recovery transitions, evacuation of crashed PMs through the online
// placer, bounded-retry migration failures, straggler overhead, and demand
// overshoot — with the graceful-degradation ladder the robustness work calls
// for: Eq. (17) admission first, then least-loaded best-effort (a *degraded*
// placement), then a stranded queue retried every interval.

// DowntimeInterval is one PM outage as observed by the simulator: the PM was
// down for intervals [Start, End). Outages still open when the run ends are
// closed at End = Intervals.
type DowntimeInterval struct {
	PM    int `json:"pm"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// FaultReport summarises injected faults and the system's degraded behaviour
// under them. Report.Faults carries it (nil on fault-free runs).
type FaultReport struct {
	// PMCrashes counts crash transitions (a PM crashing twice counts twice).
	PMCrashes int `json:"pm_crashes"`
	// MigrationFailures counts failed migration attempts (initial + retries).
	MigrationFailures int `json:"migration_failures"`
	// MigrationRetries counts retry attempts executed after a failure.
	MigrationRetries int `json:"migration_retries"`
	// AbandonedMoves counts moves given up after exhausting retries or their
	// deadline; the VM stayed on its source PM.
	AbandonedMoves int `json:"abandoned_moves"`
	// Stragglers counts migrations that succeeded but ran long, charging the
	// source PM overhead for an extra interval.
	Stragglers int `json:"stragglers"`
	// Overshoots counts (interval, VM) demand-overshoot injections.
	Overshoots int `json:"overshoots"`
	// EvacuatedVMs counts VMs displaced by PM crashes.
	EvacuatedVMs int `json:"evacuated_vms"`
	// DegradedPlacements counts evacuees placed best-effort because no PM
	// admitted them under the configured policy.
	DegradedPlacements int `json:"degraded_placements"`
	// StrandedVMs is the number of evacuees still unhosted when the run ended.
	StrandedVMs int `json:"stranded_vms"`
	// Downtime lists every observed outage, ordered by start then PM.
	Downtime []DowntimeInterval `json:"downtime,omitempty"`
	// EvacuationLatencyMean is the mean intervals from crash to re-placement
	// over all evacuees that found a host (0 when none were evacuated).
	EvacuationLatencyMean float64 `json:"evacuation_latency_mean"`
}

// Injected returns the total number of injected faults of all kinds.
func (f *FaultReport) Injected() int {
	return f.PMCrashes + f.MigrationFailures + f.Stragglers + f.Overshoots
}

// pendingMove is a failed migration awaiting retry with exponential backoff.
type pendingMove struct {
	vm       cloud.VM
	fromPM   int
	attempt  int // number of the next attempt (the initial try was attempt 1)
	due      int // interval at which to retry
	deadline int // abandon once the clock passes this interval
}

// strandedVM is an evacuee no PM could host, queued for re-placement.
type strandedVM struct {
	vm    cloud.VM
	since int // interval of the crash that displaced it
}

// faultsEnabled reports whether a fault plan is wired in.
func (s *Simulator) faultsEnabled() bool { return s.cfg.Faults != nil }

// pmDown reports whether the PM is currently crashed.
func (s *Simulator) pmDown(pmID int) bool { return s.downPMs[pmID] }

// computeOvershoot refreshes the per-VM demand multipliers for interval t and
// emits one fault event per overshoot, in ascending VM id whatever order the
// registry is in. It walks the ledger's dense registry (attached VMs only)
// instead of materialising a sorted VM slice per step.
func (s *Simulator) computeOvershoot(t int) {
	for id := range s.overshoot {
		delete(s.overshoot, id)
	}
	if !s.faultsEnabled() {
		return
	}
	for vi, id := range s.led.vmIDs {
		if s.led.vmHome[vi] < 0 {
			continue
		}
		if f := s.cfg.Faults.DemandOvershoot(t, id); f > 1 {
			s.overshoot[id] = f
		}
	}
	s.faults.Overshoots += len(s.overshoot)
	if s.tracer.Enabled() {
		ids := make([]int, 0, len(s.overshoot))
		for id := range s.overshoot {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			s.tracer.Emit(telemetry.FaultEvent{
				Interval: t, Type: telemetry.FaultDemandOvershoot, VMID: id,
			})
		}
	}
}

// applyFaults advances crash/recovery state for every PM in the pool. A crash
// transition evacuates the PM's VMs; a recovery closes the downtime interval
// and returns the PM to the target pool.
func (s *Simulator) applyFaults(t int) error {
	if !s.faultsEnabled() {
		return nil
	}
	for _, pm := range s.led.pms {
		down := s.cfg.Faults.PMDown(pm.ID, t)
		switch {
		case down && !s.downPMs[pm.ID]:
			s.downPMs[pm.ID] = true
			s.downSince[pm.ID] = t
			s.led.setDown(pm.ID, true)
			s.faults.PMCrashes++
			if s.tracer.Enabled() {
				s.tracer.Emit(telemetry.FaultEvent{
					Interval: t, Type: telemetry.FaultPMCrash, PMID: pm.ID,
				})
			}
			if err := s.evacuate(t, pm.ID); err != nil {
				return err
			}
		case !down && s.downPMs[pm.ID]:
			delete(s.downPMs, pm.ID)
			s.led.setDown(pm.ID, false)
			s.faults.Downtime = append(s.faults.Downtime,
				DowntimeInterval{PM: pm.ID, Start: s.downSince[pm.ID], End: t})
			delete(s.downSince, pm.ID)
			if s.tracer.Enabled() {
				s.tracer.Emit(telemetry.FaultEvent{
					Interval: t, Type: telemetry.FaultPMRecover, PMID: pm.ID,
				})
			}
		}
	}
	return nil
}

// evacuate displaces every VM on a crashed PM through the degradation ladder.
// VMs that fit nowhere join the stranded queue.
func (s *Simulator) evacuate(t, pmID int) error {
	vms := s.placement.VMsOn(pmID) // ordered by id
	if len(vms) == 0 {
		return nil
	}
	degraded, strandedN := 0, 0
	for _, vm := range vms {
		if _, err := s.detachVM(vm.ID); err != nil {
			return err
		}
		s.faults.EvacuatedVMs++
		wasDegraded, placed, err := s.placeEvacuee(t, vm, pmID)
		if err != nil {
			return err
		}
		switch {
		case !placed:
			s.stranded = append(s.stranded, strandedVM{vm: vm, since: t})
			strandedN++
		case wasDegraded:
			degraded++
			s.evacPlaced++
		default:
			s.evacPlaced++
		}
	}
	if s.tracer.Enabled() {
		s.tracer.Emit(telemetry.EvacuationEvent{
			Interval: t, PMID: pmID, VMs: len(vms), Degraded: degraded, Stranded: strandedN,
		})
	}
	return nil
}

// placeEvacuee hosts a displaced VM: first wherever the configured migration
// policy admits it (powering on an idle PM if needed), then best-effort on the
// least-loaded up PM with raw capacity — a degraded placement. The VM must
// already be detached from the placement.
func (s *Simulator) placeEvacuee(t int, vm cloud.VM, exclude int) (degraded, placed bool, err error) {
	st := s.led.stateOf(vm.ID)
	demand, err := s.vmDemand(vm, st)
	if err != nil {
		return false, false, err
	}
	target, poweredOn, ok := s.pickTarget(exclude, vm, demand)
	if !ok {
		target, poweredOn, ok = s.bestEffortTarget(vm, demand)
		if !ok {
			return false, false, nil
		}
		degraded = true
	}
	if err := s.attachVM(vm, target, st, s.boostOf(vm.ID), demand); err != nil {
		return false, false, err
	}
	if poweredOn {
		s.powerOns++
	}
	if degraded {
		s.faults.DegradedPlacements++
		if s.tracer.Enabled() {
			s.tracer.Emit(telemetry.FaultEvent{
				Interval: t, Type: telemetry.FaultDegradedPlacement, PMID: target, VMID: vm.ID,
			})
		}
	}
	return degraded, true, nil
}

// bestEffortTarget picks the least-loaded up PM whose raw capacity fits the
// VM's current demand, ignoring the reservation policy; if no powered-on PM
// fits, it powers on the lowest-id idle up PM that does. Like pickTarget it
// walks the ledger's trees instead of sorting every candidate.
func (s *Simulator) bestEffortTarget(vm cloud.VM, demand float64) (target int, poweredOn, ok bool) {
	l := s.led
	found := -1
	l.scratch = l.onTree.Ascend(l.scratch, func(pos int, eff float64) bool {
		if eff+demand <= l.pms[pos].Capacity+1e-9 {
			found = pos
			return false
		}
		return true
	})
	if found >= 0 {
		return l.pms[found].ID, false, true
	}
	for from := 0; ; {
		pos := l.idleTree.FirstAtLeast(from, demand-1e-9)
		if pos < 0 {
			return 0, false, false
		}
		if demand <= l.pms[pos].Capacity+1e-9 {
			return l.pms[pos].ID, true, true
		}
		from = pos + 1
	}
}

// retryStranded re-runs the degradation ladder over the stranded queue,
// accounting evacuation latency for VMs that finally find a host.
func (s *Simulator) retryStranded(t int) error {
	if len(s.stranded) == 0 {
		return nil
	}
	keep := s.stranded[:0]
	for _, sv := range s.stranded {
		_, placed, err := s.placeEvacuee(t, sv.vm, -1)
		if err != nil {
			return err
		}
		if !placed {
			keep = append(keep, sv)
			continue
		}
		s.evacLatency += t - sv.since
		s.evacPlaced++
	}
	s.stranded = keep
	return nil
}

// scheduleRetry queues a retry after a failed migration attempt, unless
// retries are disabled or the backoff would overshoot the move's deadline.
// attempt is the number of the attempt that just failed.
func (s *Simulator) scheduleRetry(t int, vm cloud.VM, fromPM, attempt, deadline int) {
	if s.cfg.MaxRetries == 0 || attempt > s.cfg.MaxRetries {
		s.abandonMove(t, vm.ID, fromPM, attempt)
		return
	}
	// Exponential backoff: base · 2^(attempt-1) intervals before the next try.
	due := t + s.cfg.RetryBackoff<<(attempt-1)
	if due > deadline {
		s.abandonMove(t, vm.ID, fromPM, attempt)
		return
	}
	s.retries = append(s.retries, pendingMove{
		vm: vm, fromPM: fromPM, attempt: attempt + 1, due: due, deadline: deadline,
	})
	s.pendingFrom[fromPM]++
}

// abandonMove records giving up on a move; the VM stays on its source PM.
func (s *Simulator) abandonMove(t, vmID, fromPM, attempt int) {
	s.faults.AbandonedMoves++
	if s.tracer.Enabled() {
		s.tracer.Emit(telemetry.FaultEvent{
			Interval: t, Type: telemetry.FaultRetryAbandoned, PMID: fromPM, VMID: vmID, Attempt: attempt,
		})
	}
}

// processRetries executes the retries due at interval t and returns the
// migration events of those that succeeded. A retry whose VM has meanwhile
// departed, moved, or been evacuated is dropped silently.
func (s *Simulator) processRetries(t int) ([]MigrationEvent, error) {
	if len(s.retries) == 0 {
		return nil, nil
	}
	var events []MigrationEvent
	// Detach the queue before iterating: scheduleRetry and the saturated-pool
	// path below re-append to s.retries, which must not alias the slice being
	// filtered.
	pending := s.retries
	s.retries = nil
	for _, pm := range pending {
		if pm.due > t {
			s.retries = append(s.retries, pm)
			continue
		}
		s.pendingFrom[pm.fromPM]--
		host, hosted := s.placement.PMOf(pm.vm.ID)
		if !hosted || host != pm.fromPM || s.pmDown(pm.fromPM) {
			continue // the move resolved itself; nothing to retry
		}
		if t > pm.deadline {
			s.abandonMove(t, pm.vm.ID, pm.fromPM, pm.attempt-1)
			continue
		}
		s.faults.MigrationRetries++
		if s.tracer.Enabled() {
			s.tracer.Emit(telemetry.FaultEvent{
				Interval: t, Type: telemetry.FaultMigrationRetry,
				PMID: pm.fromPM, VMID: pm.vm.ID, Attempt: pm.attempt,
			})
		}
		st := s.led.stateOf(pm.vm.ID)
		demand, err := s.vmDemand(pm.vm, st)
		if err != nil {
			return nil, err
		}
		target, poweredOn, ok := s.pickTarget(pm.fromPM, pm.vm, demand)
		if !ok {
			// Pool saturated right now; try again after the base backoff
			// without consuming an attempt. The deadline still bounds this.
			retry := pm
			retry.due = t + s.cfg.RetryBackoff
			s.retries = append(s.retries, retry)
			s.pendingFrom[pm.fromPM]++
			continue
		}
		if s.migrationFails(t, pm.vm.ID, pm.fromPM, pm.attempt) {
			s.led.charge(s.led.pmPos[pm.fromPM], demand*s.cfg.MigrationOverhead)
			s.scheduleRetry(t, pm.vm, pm.fromPM, pm.attempt, pm.deadline)
			continue
		}
		if _, err := s.detachVM(pm.vm.ID); err != nil {
			return nil, err
		}
		if err := s.attachVM(pm.vm, target, st, s.boostOf(pm.vm.ID), demand); err != nil {
			return nil, err
		}
		s.chargeMigration(t, pm.fromPM, target, pm.vm.ID, demand)
		events = append(events, MigrationEvent{
			Interval: t, VMID: pm.vm.ID, FromPM: pm.fromPM, ToPM: target, PoweredOn: poweredOn,
		})
	}
	return events, nil
}

// migrationFails consults the fault plan for one migration attempt, recording
// and tracing the failure when it fires.
func (s *Simulator) migrationFails(t, vmID, fromPM, attempt int) bool {
	if !s.faultsEnabled() || !s.cfg.Faults.MigrationFails(t, vmID, attempt) {
		return false
	}
	s.faults.MigrationFailures++
	if s.tracer.Enabled() {
		s.tracer.Emit(telemetry.FaultEvent{
			Interval: t, Type: telemetry.FaultMigrationFail, PMID: fromPM, VMID: vmID, Attempt: attempt,
		})
	}
	return true
}

// chargeMigration applies the CPU cost of a completed migration: one interval
// of overhead on the source, a second one when the move straggles, and window
// resets on both ends so one breach does not double-trigger.
func (s *Simulator) chargeMigration(t, fromPM, toPM, vmID int, demand float64) {
	cost := demand * s.cfg.MigrationOverhead
	fromPos := s.led.pmPos[fromPM]
	s.led.charge(fromPos, cost)
	if s.faultsEnabled() && s.cfg.Faults.MigrationStraggles(t, vmID) {
		s.led.chargeNext(fromPos, cost)
		s.faults.Stragglers++
		if s.tracer.Enabled() {
			s.tracer.Emit(telemetry.FaultEvent{
				Interval: t, Type: telemetry.FaultMigrationStraggle, PMID: fromPM, VMID: vmID,
			})
		}
	}
	s.led.winReset(fromPos)
	s.led.winReset(s.led.pmPos[toPM])
}

// faultReport snapshots the fault accounting for the final report, closing
// outages still open at the end of the run.
func (s *Simulator) faultReport() *FaultReport {
	if !s.faultsEnabled() {
		return nil
	}
	fr := s.faults
	fr.Downtime = append([]DowntimeInterval(nil), s.faults.Downtime...)
	var open []int
	for pmID := range s.downSince {
		open = append(open, pmID)
	}
	sort.Ints(open)
	for _, pmID := range open {
		fr.Downtime = append(fr.Downtime,
			DowntimeInterval{PM: pmID, Start: s.downSince[pmID], End: s.cfg.Intervals})
	}
	sort.Slice(fr.Downtime, func(i, j int) bool {
		if fr.Downtime[i].Start != fr.Downtime[j].Start {
			return fr.Downtime[i].Start < fr.Downtime[j].Start
		}
		return fr.Downtime[i].PM < fr.Downtime[j].PM
	})
	fr.StrandedVMs = len(s.stranded)
	if s.evacPlaced > 0 {
		fr.EvacuationLatencyMean = float64(s.evacLatency) / float64(s.evacPlaced)
	}
	return &fr
}
