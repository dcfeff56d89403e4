package sim

import (
	"fmt"

	"repro/internal/queuing"
)

// ForecastConfig enables the per-interval transient forecast hook: after each
// interval's migrations settle, the simulator asks the closed-form transient
// engine (internal/queuing) for every powered-on PM's probability of
// exceeding its reservation within Horizon intervals, conditioned on the PM's
// current busy count. The hook is read-only — it never touches the RNG or the
// ledger — so enabling it leaves every other Report field bit-identical.
type ForecastConfig struct {
	// Horizon is the look-ahead in intervals (σ-steps). Zero defaults to 10.
	Horizon int
	// Every runs the forecast only on intervals divisible by it (1 = every
	// interval). Zero defaults to 1.
	Every int
	// Cache serves the per-(k, busy, horizon) occupancy solves. Nil uses the
	// process-wide queuing.SharedForecasts(), so repeated shapes across runs
	// share entries.
	Cache *queuing.ForecastCache
	// OnReport, when non-nil, receives each interval's ForecastReport as it
	// is produced — the warm API for an autoscaler or live dashboard. The
	// callback must not mutate the simulator.
	OnReport func(ForecastReport)
}

// withDefaults fills zero values and validates.
func (f ForecastConfig) withDefaults() (ForecastConfig, error) {
	if f.Horizon == 0 {
		f.Horizon = 10
	}
	if f.Horizon < 0 {
		return f, fmt.Errorf("sim: Forecast.Horizon = %d, want ≥ 0", f.Horizon)
	}
	if f.Every == 0 {
		f.Every = 1
	}
	if f.Every < 0 {
		return f, fmt.Errorf("sim: Forecast.Every = %d, want ≥ 0", f.Every)
	}
	if f.Cache == nil {
		f.Cache = queuing.SharedForecasts()
	}
	return f, nil
}

// PMForecast is one PM's forward-looking risk at a forecast interval.
type PMForecast struct {
	PMID int `json:"pm_id"`
	// VMs is the number of VMs hosted (the busy-blocks chain capacity k).
	VMs int `json:"vms"`
	// Busy is the current number of ON VMs (the chain's conditioning state).
	Busy int `json:"busy"`
	// Blocks is the reservation mapping(k) from the run's mapping table.
	Blocks int `json:"blocks"`
	// Violation is P(busy blocks > Blocks at t+Horizon | Busy now).
	Violation float64 `json:"violation"`
}

// ForecastReport is one interval's fleet-wide forecast.
type ForecastReport struct {
	Interval int `json:"interval"`
	Horizon  int `json:"horizon"`
	// PMs lists every powered-on, non-crashed PM in ledger position order.
	PMs []PMForecast `json:"pms"`
	// MeanViolation and MaxViolation aggregate over PMs (zero when none).
	MeanViolation float64 `json:"mean_violation"`
	MaxViolation  float64 `json:"max_violation"`
}

// ForecastDigest summarises the forecast stream over a whole run.
type ForecastDigest struct {
	Horizon int `json:"horizon"`
	// Intervals counts forecast passes (Intervals/Every, modulo rounding).
	Intervals int `json:"intervals"`
	// MeanViolation averages the per-interval mean violation probabilities;
	// MaxViolation is the worst single-PM probability seen all run.
	MeanViolation float64 `json:"mean_violation"`
	MaxViolation  float64 `json:"max_violation"`
	// Final is the last interval's full report.
	Final *ForecastReport `json:"final,omitempty"`
}

// fcMemoEntry is one PM shape's forecast within a step; at is the forecast
// pass (fcCount+1) that filled it, so the memo needs no clearing.
type fcMemoEntry struct {
	at        int
	blocks    int
	violation float64
}

// forecastShape answers one PM shape — k hosted VMs, busy of them ON — for
// the current forecast pass. Powered-on PMs share a few dozen shapes, so the
// forecast cache is asked once per distinct shape per pass and every other PM
// reads the memo (indexed triangularly: busy ≤ k).
func (s *Simulator) forecastShape(k, busy int) (blocks int, violation float64, err error) {
	idx := k*(k+1)/2 + busy
	if idx >= len(s.fcMemo) {
		s.fcMemo = append(s.fcMemo, make([]fcMemoEntry, idx+1-len(s.fcMemo))...)
	}
	e := &s.fcMemo[idx]
	if e.at != s.fcCount+1 {
		// The reservation is table-capped: a PM hosting more than MaxVMs
		// (possible only under degraded fault placements) reserves at the cap.
		kt := k
		if max := s.table.MaxVMs(); kt > max {
			kt = max
		}
		fc := s.cfg.Forecast
		blocks := s.table.Blocks(kt)
		v, err := fc.Cache.ViolationAt(k, busy, s.table.POn(), s.table.POff(), fc.Horizon, blocks)
		if err != nil {
			return 0, 0, err
		}
		*e = fcMemoEntry{at: s.fcCount + 1, blocks: blocks, violation: v}
	}
	return e.blocks, e.violation, nil
}

// forecastStep produces the interval's ForecastReport from the settled
// ledger. It reads hosted-set sizes, the ledger's per-PM ON counts, and the
// mapping table only; occupancy solves go through the forecast cache, so
// steady-state fleets re-solve nothing after the first pass.
func (s *Simulator) forecastStep(t int) error {
	fc := s.cfg.Forecast
	l := s.led
	rep := ForecastReport{Interval: t, Horizon: fc.Horizon}
	// Down PMs host nothing, so the used-PM count is the list's final size.
	rep.PMs = make([]PMForecast, 0, s.placement.NumUsedPMs())
	sum := 0.0
	for pos := range l.pms {
		k := len(l.hosted[pos])
		if k == 0 || l.down[pos] {
			continue
		}
		busy := int(l.pmOn[pos])
		blocks, v, err := s.forecastShape(k, busy)
		if err != nil {
			return fmt.Errorf("sim: forecast for PM %d: %w", l.pms[pos].ID, err)
		}
		rep.PMs = append(rep.PMs, PMForecast{
			PMID: l.pms[pos].ID, VMs: k, Busy: busy, Blocks: blocks, Violation: v,
		})
		sum += v
		if v > rep.MaxViolation {
			rep.MaxViolation = v
		}
	}
	if len(rep.PMs) > 0 {
		rep.MeanViolation = sum / float64(len(rep.PMs))
	}
	s.fcCount++
	s.fcSum += rep.MeanViolation
	if rep.MaxViolation > s.fcMax {
		s.fcMax = rep.MaxViolation
	}
	s.fcLast = &rep
	if fc.OnReport != nil {
		fc.OnReport(rep)
	}
	return nil
}

// forecastDigest assembles the run-level digest (nil when the hook is off or
// never fired).
func (s *Simulator) forecastDigest() *ForecastDigest {
	if s.cfg.Forecast == nil || s.fcCount == 0 {
		return nil
	}
	return &ForecastDigest{
		Horizon:       s.cfg.Forecast.Horizon,
		Intervals:     s.fcCount,
		MeanViolation: s.fcSum / float64(s.fcCount),
		MaxViolation:  s.fcMax,
		Final:         s.fcLast,
	}
}
