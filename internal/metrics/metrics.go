// Package metrics provides the measurement machinery of §V: capacity-
// violation-ratio accounting per PM (Eq. 4), cross-trial statistics
// (the avg/min/max bars and whiskers of Fig. 9), time series of runtime
// quantities (Fig. 10), and plain-text table rendering for the experiment
// harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// CVRMeter accumulates per-PM capacity-violation observations over a run:
// CVR_j = (Σ_t vio(j,t)) / t, Eq. (4).
type CVRMeter struct {
	violations map[int]int
	steps      map[int]int
}

// NewCVRMeter returns an empty meter.
func NewCVRMeter() *CVRMeter {
	return &CVRMeter{violations: make(map[int]int), steps: make(map[int]int)}
}

// Observe records one interval for a PM.
func (m *CVRMeter) Observe(pmID int, violated bool) {
	m.steps[pmID]++
	if violated {
		m.violations[pmID]++
	}
}

// Add records steps intervals for a PM at once, violations of them violated —
// how the simulator hands over the dense per-PM counters it keeps during a
// run. The result is the meter the same Observe calls would have built.
func (m *CVRMeter) Add(pmID, steps, violations int) {
	m.steps[pmID] += steps
	if violations > 0 {
		m.violations[pmID] += violations
	}
}

// Counts returns a PM's raw observation and violation counts.
func (m *CVRMeter) Counts(pmID int) (steps, violations int) {
	return m.steps[pmID], m.violations[pmID]
}

// CVR returns a PM's violation ratio, or 0 if it was never observed.
func (m *CVRMeter) CVR(pmID int) float64 {
	steps := m.steps[pmID]
	if steps == 0 {
		return 0
	}
	return float64(m.violations[pmID]) / float64(steps)
}

// PMs returns the ids of all observed PMs, sorted.
func (m *CVRMeter) PMs() []int {
	out := make([]int, 0, len(m.steps))
	for id := range m.steps {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// All returns every observed PM's CVR keyed by id.
func (m *CVRMeter) All() map[int]float64 {
	out := make(map[int]float64, len(m.steps))
	for id := range m.steps {
		out[id] = m.CVR(id)
	}
	return out
}

// Values returns the CVRs of all observed PMs in id order.
func (m *CVRMeter) Values() []float64 {
	pms := m.PMs()
	out := make([]float64, len(pms))
	for i, id := range pms {
		out[i] = m.CVR(id)
	}
	return out
}

// Max returns the largest CVR across PMs (0 when nothing observed).
func (m *CVRMeter) Max() float64 {
	maxCVR := 0.0
	for id := range m.steps {
		if c := m.CVR(id); c > maxCVR {
			maxCVR = c
		}
	}
	return maxCVR
}

// Reset discards every observation, returning the meter to its initial state.
func (m *CVRMeter) Reset() {
	m.violations = make(map[int]int)
	m.steps = make(map[int]int)
}

// Merge folds another meter's observations into this one, summing the
// per-PM violation and step counts — the combination rule for experiment
// shards that observed disjoint interval ranges of the same fleet. The other
// meter is left unchanged; a nil other is a no-op.
func (m *CVRMeter) Merge(other *CVRMeter) {
	if other == nil {
		return
	}
	for id, n := range other.steps {
		m.Add(id, n, other.violations[id])
	}
}

// Mean returns the average CVR across observed PMs (0 when nothing
// observed).
func (m *CVRMeter) Mean() float64 {
	if len(m.steps) == 0 {
		return 0
	}
	// Accumulate in sorted-id order: float addition is not associative, so
	// map-iteration order would make the mean differ across runs by an ulp
	// and break bit-identical replay of seeded simulations.
	sum := 0.0
	for _, id := range m.PMs() {
		sum += m.CVR(id)
	}
	return sum / float64(len(m.steps))
}

// OverThreshold returns the ids of PMs whose CVR exceeds rho, sorted — the
// paper's "very few PMs with CVRs slightly higher than ρ" observation.
func (m *CVRMeter) OverThreshold(rho float64) []int {
	var out []int
	for id := range m.steps {
		if m.CVR(id) > rho {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes descriptive statistics; an empty sample gives a zero
// Summary.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{N: len(values), Min: values[0], Max: values[0]}
	sum := 0.0
	for _, v := range values {
		sum += v
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		varSum := 0.0
		for _, v := range values {
			d := v - s.Mean
			varSum += d * d
		}
		s.StdDev = math.Sqrt(varSum / float64(s.N-1))
	}
	return s
}

// TrialStats accumulates one scalar measurement across repeated experiment
// trials — the avg/min/max presentation of Fig. 9.
type TrialStats struct {
	name   string
	values []float64
}

// NewTrialStats creates a named accumulator.
func NewTrialStats(name string) *TrialStats { return &TrialStats{name: name} }

// Name returns the measurement name.
func (t *TrialStats) Name() string { return t.name }

// Add records one trial's value.
func (t *TrialStats) Add(v float64) { t.values = append(t.values, v) }

// Trials returns the number of recorded trials.
func (t *TrialStats) Trials() int { return len(t.values) }

// Summary returns the cross-trial statistics.
func (t *TrialStats) Summary() Summary { return Summarize(t.values) }

// Reset discards every recorded trial, keeping the name.
func (t *TrialStats) Reset() { t.values = t.values[:0] }

// Merge appends another accumulator's trials to this one, so shards of a
// parallel experiment can be combined without re-running trials. The other
// accumulator is left unchanged; a nil other is a no-op. Names are not
// reconciled — the receiver's name wins.
func (t *TrialStats) Merge(other *TrialStats) {
	if other == nil {
		return
	}
	t.values = append(t.values, other.values...)
}

// String renders "name: avg X (min Y, max Z) over N trials".
func (t *TrialStats) String() string {
	s := t.Summary()
	return fmt.Sprintf("%s: avg %.2f (min %.2f, max %.2f) over %d trials", t.name, s.Mean, s.Min, s.Max, s.N)
}

// TimeSeries is an ordered sequence of (step, value) observations, e.g. the
// number of PMs in use per interval (Fig. 10's companion curve).
type TimeSeries struct {
	name   string
	steps  []int
	values []float64
}

// NewTimeSeries creates a named series.
func NewTimeSeries(name string) *TimeSeries { return &TimeSeries{name: name} }

// Name returns the series name.
func (ts *TimeSeries) Name() string { return ts.name }

// Append records the next observation.
func (ts *TimeSeries) Append(step int, value float64) {
	ts.steps = append(ts.steps, step)
	ts.values = append(ts.values, value)
}

// Len returns the number of observations.
func (ts *TimeSeries) Len() int { return len(ts.values) }

// At returns the i-th observation.
func (ts *TimeSeries) At(i int) (step int, value float64) { return ts.steps[i], ts.values[i] }

// Values returns a copy of the value sequence.
func (ts *TimeSeries) Values() []float64 {
	out := make([]float64, len(ts.values))
	copy(out, ts.values)
	return out
}

// Last returns the final value, or 0 for an empty series.
func (ts *TimeSeries) Last() float64 {
	if len(ts.values) == 0 {
		return 0
	}
	return ts.values[len(ts.values)-1]
}

// Sum returns the total of all values.
func (ts *TimeSeries) Sum() float64 {
	sum := 0.0
	for _, v := range ts.values {
		sum += v
	}
	return sum
}

// Buckets partitions the series into numBuckets contiguous windows and
// returns each window's sum — how Fig. 10 presents migration events over
// time. The final bucket absorbs any remainder when Len is not divisible by
// numBuckets, and numBuckets is clamped to Len so every bucket covers at
// least one observation.
//
// The returned slice is freshly allocated on every call — a defensive copy
// the caller owns and may mutate without affecting the series or later
// Buckets calls.
func (ts *TimeSeries) Buckets(numBuckets int) []float64 {
	if numBuckets < 1 || ts.Len() == 0 {
		return nil
	}
	if numBuckets > ts.Len() {
		numBuckets = ts.Len()
	}
	out := make([]float64, numBuckets)
	per := ts.Len() / numBuckets
	for i, v := range ts.values {
		b := i / per
		if b >= numBuckets {
			b = numBuckets - 1
		}
		out[b] += v
	}
	return out
}
