package queuing

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/linalg"
	"repro/internal/markov"
)

// ErrNeverViolates is returned (wrapped) by MeanTimeToViolation when the
// reservation equals the full capacity k: a fully provisioned PM can never
// exceed its reservation, so the absorption time is infinite. Callers branch
// with errors.Is, the same sentinel discipline as linalg.ErrSingular.
var ErrNeverViolates = errors.New("queuing: fully provisioned PM never violates")

// Transient analyses the busy-blocks chain before it reaches steady state —
// answering the operator questions the stationary analysis cannot: how fast a
// freshly consolidated PM approaches its long-run CVR, and how long until its
// reservation is first overrun.
//
// The k blocks are independent two-state chains, so the occupancy
// distribution after t steps from i busy blocks is the convolution of
// Binomial(i, stayOn(t)) and Binomial(k−i, turnOn(t)) with the closed-form
// t-step probabilities from markov.OnOff.TStepOn — no matrix power needed.
// Tests and fuzzing hold it to a matrix-power oracle within 1e-10.
//
// A Transient is safe for concurrent use; its scratch rows live behind a
// mutex.
type Transient struct {
	bb *markov.BusyBlocks

	mu   sync.Mutex
	rowA []float64 // B(i, stayOn) scratch
	rowB []float64 // B(k−i, turnOn) scratch
}

// NewTransient wraps a busy-blocks chain for transient queries.
func NewTransient(k int, pOn, pOff float64) (*Transient, error) {
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return nil, err
	}
	return &Transient{bb: bb}, nil
}

// K returns the capacity (number of blocks) of the underlying chain.
func (tr *Transient) K() int { return tr.bb.K() }

// DistributionAt returns the occupancy distribution Π₀·Pᵗ after t steps from
// the given initial distribution (nil = all mass on 0 busy blocks, the
// paper's Π₀ — a PM whose VMs all start OFF). It is evaluated in closed form:
// a single binomial row for Π₀, otherwise a mixture of per-point-mass
// convolutions weighted by the initial distribution.
func (tr *Transient) DistributionAt(t int, initial []float64) ([]float64, error) {
	if t < 0 {
		return nil, fmt.Errorf("queuing: negative time %d", t)
	}
	if initial != nil {
		if err := tr.checkInitial(initial); err != nil {
			return nil, err
		}
	}
	k := tr.bb.K()
	turnOn, stayOn := tr.bb.Source().TStepOn(t)
	out := make([]float64, k+1)
	if initial == nil {
		markov.BinomialPMFRowInto(out, k, turnOn)
		return out, nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	on, off := tr.scratchLocked()
	for i, w := range initial {
		if w == 0 {
			continue
		}
		convolveOccupancy(out, w, i, k, stayOn, turnOn, on, off)
	}
	return out, nil
}

// OccupancyAt returns the occupancy distribution t steps after starting from
// exactly `from` busy blocks — the point-mass special case of DistributionAt,
// which the forecast layers use per PM (the live busy count is a point mass,
// not a distribution). It costs one convolution, O(k), with no validation
// sweep over an initial vector.
func (tr *Transient) OccupancyAt(t, from int) ([]float64, error) {
	if t < 0 {
		return nil, fmt.Errorf("queuing: negative time %d", t)
	}
	k := tr.bb.K()
	if from < 0 || from > k {
		return nil, fmt.Errorf("queuing: initial busy blocks %d outside [0, %d]", from, k)
	}
	turnOn, stayOn := tr.bb.Source().TStepOn(t)
	out := make([]float64, k+1)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	on, off := tr.scratchLocked()
	convolveOccupancy(out, 1, from, k, stayOn, turnOn, on, off)
	return out, nil
}

// convolveOccupancy accumulates w · (B(i, stayOn) ⊛ B(k−i, turnOn)) into out:
// of i initially busy blocks, B(i, stayOn) are still busy after t steps; of
// the k−i idle ones, B(k−i, turnOn) have turned busy — and the two groups are
// independent. on and off are caller scratch of length ≥ k+1.
func convolveOccupancy(out []float64, w float64, i, k int, stayOn, turnOn float64, on, off []float64) {
	markov.BinomialPMFRowInto(on[:i+1], i, stayOn)
	markov.BinomialPMFRowInto(off[:k-i+1], k-i, turnOn)
	surv := on[:i+1]
	arr := off[: k-i+1 : k-i+1]
	for r, s := range surv {
		a := w * s
		if a == 0 {
			continue
		}
		dst := out[r : r+len(arr)]
		for x, b := range arr {
			dst[x] += a * b
		}
	}
}

// scratchLocked returns the two row buffers, allocating them on first use.
// Callers must hold tr.mu.
func (tr *Transient) scratchLocked() (a, b []float64) {
	if tr.rowA == nil {
		n := tr.bb.K() + 1
		tr.rowA = make([]float64, n)
		tr.rowB = make([]float64, n)
	}
	return tr.rowA, tr.rowB
}

// checkInitial validates a caller-supplied initial distribution.
func (tr *Transient) checkInitial(initial []float64) error {
	n := tr.bb.K() + 1
	if len(initial) != n {
		return fmt.Errorf("queuing: initial distribution length %d, want %d", len(initial), n)
	}
	sum := 0.0
	for _, v := range initial {
		if v < 0 {
			return fmt.Errorf("queuing: negative initial probability %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("queuing: initial distribution sums to %v", sum)
	}
	return nil
}

// ViolationProbabilityAt returns Pr{θ(t) > kBlocks} starting from all-OFF —
// the instantaneous violation probability t steps after consolidation: one
// binomial row into reused scratch.
func (tr *Transient) ViolationProbabilityAt(t, kBlocks int) (float64, error) {
	if t < 0 {
		return 0, fmt.Errorf("queuing: negative time %d", t)
	}
	k := tr.bb.K()
	turnOn, _ := tr.bb.Source().TStepOn(t)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, row := tr.scratchLocked()
	markov.BinomialPMFRowInto(row, k, turnOn)
	return markov.TailFromStationary(row, kBlocks), nil
}

// ForecastCurve returns Pr{θ(t) > kBlocks | Π₀} for every t in [t0, t1]
// inclusive — the batched form of ViolationProbabilityAt an autoscaler
// evaluates per decision, reusing one scratch row across the whole span
// (O((t1−t0+1)·k) total).
func (tr *Transient) ForecastCurve(t0, t1, kBlocks int) ([]float64, error) {
	if t0 < 0 {
		return nil, fmt.Errorf("queuing: negative time %d", t0)
	}
	if t1 < t0 {
		return nil, fmt.Errorf("queuing: forecast span [%d, %d] is empty", t0, t1)
	}
	out := make([]float64, t1-t0+1)
	k := tr.bb.K()
	chain := tr.bb.Source()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, row := tr.scratchLocked()
	for t := t0; t <= t1; t++ {
		turnOn, _ := chain.TStepOn(t)
		markov.BinomialPMFRowInto(row, k, turnOn)
		out[t-t0] = markov.TailFromStationary(row, kBlocks)
	}
	return out, nil
}

// MixingTime returns the smallest t at which the all-OFF transient
// distribution is within tol of the stationary distribution in total
// variation distance, searching up to maxT. It quantifies the paper's
// empirical remark that "the system [has] stabilized merely within 10σ or
// so".
//
// The scan skips straight to the spectral lower bound: the mean occupancy gap
// k·π_on·|λ|ᵗ forces TV(t) ≥ π_on·|λ|ᵗ, so no t below log(tol/π_on)/log|λ|
// can qualify; the exact O(k) closed-form TV evaluations start there,
// returning the same answer as iterating the matrix from t = 0 would.
func (tr *Transient) MixingTime(tol float64, maxT int) (int, error) {
	if tol <= 0 {
		return 0, fmt.Errorf("queuing: tolerance %v, want > 0", tol)
	}
	if maxT < 1 {
		return 0, fmt.Errorf("queuing: maxT %d, want ≥ 1", maxT)
	}
	pi := tr.bb.Stationary()
	k := tr.bb.K()
	chain := tr.bb.Source()
	q := chain.StationaryOn()
	lam := math.Abs(chain.Lambda())
	t0 := 0
	if lam > 0 && lam < 1 && q > tol {
		t0 = int(math.Ceil(math.Log(tol/q) / math.Log(lam)))
		if t0 < 0 {
			t0 = 0
		}
	}
	if t0 > maxT {
		return 0, fmt.Errorf("queuing: chain not within %v of stationarity after %d steps", tol, maxT)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	_, row := tr.scratchLocked()
	for t := t0; t <= maxT; t++ {
		turnOn, _ := chain.TStepOn(t)
		markov.BinomialPMFRowInto(row, k, turnOn)
		if totalVariation(row, pi) <= tol {
			return t, nil
		}
	}
	return 0, fmt.Errorf("queuing: chain not within %v of stationarity after %d steps", tol, maxT)
}

// MeanTimeToViolation returns the expected number of steps until the number
// of busy blocks first exceeds kBlocks, starting from each transient state
// 0..kBlocks (states above kBlocks are already violating and get 0). It
// solves the standard absorption system on the censored chain: for
// non-absorbing states i,
//
//	h_i = 1 + Σ_{j ≤ kBlocks} p_ij · h_j
//
// i.e. (I − Q)·h = 1 with Q the sub-matrix of P restricted to {0..kBlocks}.
// With kBlocks = k the chain never violates: the error wraps
// ErrNeverViolates. A singular absorption system (e.g. a denormal p_on
// driving the escape probabilities below the pivot threshold) surfaces as an
// error wrapping linalg.ErrSingular, so callers can branch on either
// condition with errors.Is.
func (tr *Transient) MeanTimeToViolation(kBlocks int) ([]float64, error) {
	k := tr.bb.K()
	if kBlocks < 0 || kBlocks > k {
		return nil, fmt.Errorf("queuing: kBlocks %d outside [0, %d]", kBlocks, k)
	}
	if kBlocks == k {
		return nil, fmt.Errorf("queuing: kBlocks %d covers all %d blocks; mean time is infinite: %w", kBlocks, k, ErrNeverViolates)
	}
	m := kBlocks + 1
	a := linalg.NewMatrix(m, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := -tr.bb.TransitionProb(i, j)
			if i == j {
				v += 1
			}
			a.Set(i, j, v)
		}
		b[i] = 1
	}
	h, err := linalg.SolveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("queuing: absorption solve failed: %w", err)
	}
	return h, nil
}

// totalVariation returns ½·Σ|p_i − q_i|.
func totalVariation(p, q []float64) float64 {
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2
}
