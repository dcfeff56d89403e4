package shardsvc

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cloud"
	"repro/internal/telemetry"
)

// RebalanceConfig shapes the background rebalancer. Power-of-d routing keeps
// *arrivals* balanced, but departures are routed by ownership, so a shard
// whose tenants are long-lived drifts full while its siblings drain; the
// rebalancer migrates VMs from the most- to the least-occupied shard when the
// occupancy spread breaches a hysteresis band — the same band structure as
// the admission OccupancyGate and the sim's migration trigger, for the same
// reason: a single threshold flaps.
type RebalanceConfig struct {
	// Interval is the background rebalance cadence; 0 (the default) disables
	// the ticker — RebalanceOnce still works on demand, which is what the
	// deterministic tests drive.
	Interval time.Duration
	// SkewAbove arms a rebalance round once the occupancy spread
	// (max − min over shards) reaches it. Default 0.2.
	SkewAbove float64
	// SettleBelow is the spread a round aims to restore. It must sit below
	// SkewAbove; the gap is the hysteresis band that keeps consecutive
	// rounds from ping-ponging VMs. Default SkewAbove/2.
	SettleBelow float64
	// MaxMoves caps migrations per round (default 32): a badly skewed fleet
	// converges over several rounds instead of stalling admissions behind
	// one long migration storm.
	MaxMoves int
}

func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.SkewAbove == 0 {
		c.SkewAbove = 0.2
	}
	if c.SettleBelow == 0 {
		c.SettleBelow = c.SkewAbove / 2
	}
	if c.MaxMoves == 0 {
		c.MaxMoves = 32
	}
	return c
}

func (c RebalanceConfig) validate() error {
	d := c.withDefaults()
	if math.IsNaN(d.SkewAbove) || d.SkewAbove <= 0 || d.SkewAbove > 1 {
		return fmt.Errorf("shardsvc: rebalance SkewAbove = %v outside (0, 1]", d.SkewAbove)
	}
	if math.IsNaN(d.SettleBelow) || d.SettleBelow < 0 || d.SettleBelow >= d.SkewAbove {
		return fmt.Errorf("shardsvc: rebalance band inverted: SettleBelow %v must be in [0, SkewAbove %v)",
			d.SettleBelow, d.SkewAbove)
	}
	if c.MaxMoves < 0 {
		return fmt.Errorf("shardsvc: rebalance MaxMoves = %d, want ≥ 0", c.MaxMoves)
	}
	if c.Interval < 0 {
		return fmt.Errorf("shardsvc: rebalance Interval = %v, want ≥ 0", c.Interval)
	}
	return nil
}

// rebalanceLoop is the background ticker driving RebalanceOnce. Round errors
// have no caller to return to here; RebalanceOnce counts every failed round
// in shardsvc_rebalance_errors_total (FedStats.RebalanceErrors), so ticker
// deployments observe them through metrics rather than silently losing them.
func (f *Federation) rebalanceLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.reb.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_, _ = f.RebalanceOnce()
		case <-f.stop:
			return
		}
	}
}

// RebalanceOnce runs one rebalance round and reports how many VMs moved.
//
// A round reads every shard's occupancy; when the spread (max −
// min) is below SkewAbove it is a no-op. Otherwise the most-occupied shard
// donates to the least-occupied one: each move shrinks the spread by
// 1/slots_donor + 1/slots_recipient, so the round plans
// ceil((spread − SettleBelow) / perMove) moves — capped by MaxMoves, the
// donor's population and the recipient's headroom. Candidates leave the
// donor in ascending VM-id order, skipping any VM moved in the previous
// round, so two consecutive rounds never bounce the same VM back (the
// anti-oscillation guard the tests pin). Each move departs the donor and
// re-arrives on the recipient through placesvc.ArriveMigrated — the
// admission-bypassing migration path: a move is already-admitted capacity in
// flight, so only the recipient's Eq. (17) capacity test decides placement,
// and internal moves never consume admission tokens, shed, or pollute the
// shed metrics and storm triggers (departures skip admission for the same
// reason). A capacity-refused move rolls back to the donor on the same path,
// so a shard's admission policy can never evict the VM on re-arrival; each
// completed move is traced as a planned MigrationTraceEvent with the round
// as its interval, reusing the simulator's migration accounting so existing
// trace tooling reads federation rebalances unchanged.
//
// A non-nil error (also counted in shardsvc_rebalance_errors_total, so the
// background ticker's discarded returns stay observable) means the round
// aborted; the eviction error additionally means a VM was lost to a
// depart/re-arrive race with concurrent client churn on the donor.
func (f *Federation) RebalanceOnce() (moves int, err error) {
	moves, err = f.rebalanceOnce()
	if err != nil {
		f.metrics.rebErrors.Inc()
	}
	return moves, err
}

func (f *Federation) rebalanceOnce() (moves int, err error) {
	if len(f.shards) == 1 {
		return 0, nil
	}
	f.rebMu.Lock()
	defer f.rebMu.Unlock()

	occ := make([]float64, len(f.shards))
	donor, recip := 0, 0
	for i, s := range f.shards {
		occ[i] = s.Occupancy()
		if occ[i] > occ[donor] {
			donor = i
		}
		if occ[i] < occ[recip] {
			recip = i
		}
	}
	spread := occ[donor] - occ[recip]
	if spread < f.reb.SkewAbove {
		return 0, nil
	}

	f.metrics.rebRounds.Inc()
	f.rebRound++
	round := f.rebRound
	if o := f.obs; o != nil {
		o.ObserveSkew()
	}

	donorSnap := f.shards[donor].Snapshot()
	recipSnap := f.shards[recip].Snapshot()
	perMove := 1/float64(donorSnap.Slots()) + 1/float64(recipSnap.Slots())
	want := int(math.Ceil((spread - f.reb.SettleBelow) / perMove))
	want = min(want, f.reb.MaxMoves)
	want = min(want, donorSnap.Stats().VMs)
	want = min(want, recipSnap.Headroom())
	if want <= 0 {
		return 0, nil
	}

	placement, perr := donorSnap.Placement()
	if perr != nil {
		return 0, fmt.Errorf("shardsvc: rebalance reading donor %d: %w", donor, perr)
	}
	for _, vm := range placement.VMs() { // ascending id: deterministic candidate order
		if moves >= want {
			break
		}
		if f.lastMoved[vm.ID] == round-1 && round > 1 {
			continue // moved last round; let it settle
		}
		fromPM, ok := placement.PMOf(vm.ID)
		if !ok {
			continue
		}
		if err := f.shards[donor].Depart(vm.ID); err != nil {
			// Departed between snapshot and now (concurrent churn); skip.
			continue
		}
		toPM, aerr := f.shards[recip].ArriveMigrated(vm)
		if aerr != nil {
			f.metrics.rebFailed.Inc()
			if _, rerr := f.shards[donor].ArriveMigrated(vm); rerr != nil {
				// The rollback also bypasses admission, so it can only fail
				// if concurrent client arrivals consumed the slot the Depart
				// freed. Then the VM is evicted; surface it — callers treat a
				// rebalance error as lost capacity.
				f.clearOwner(vm.ID)
				return moves, fmt.Errorf("shardsvc: rebalance evicted VM %d (recipient: %v; rollback: %w)",
					vm.ID, aerr, rerr)
			}
			if errors.Is(aerr, cloud.ErrNoCapacity) {
				continue // recipient filled up under us; try the next VM
			}
			return moves, fmt.Errorf("shardsvc: rebalance moving VM %d: %w", vm.ID, aerr)
		}
		f.setOwner(vm.ID, recip)
		f.lastMoved[vm.ID] = round
		moves++
		f.metrics.rebMoves.Inc()
		if tr := f.tracer; tr != nil && tr.Enabled() {
			tr.Emit(telemetry.MigrationTraceEvent{
				Interval: round,
				VMID:     vm.ID,
				FromPM:   fromPM,
				ToPM:     toPM,
				Planned:  true,
			})
		}
	}
	// Forget moves older than the last round so the guard map stays bounded.
	for id, r := range f.lastMoved {
		if r < round-1 {
			delete(f.lastMoved, id)
		}
	}
	return moves, nil
}
