package queuing

import (
	"fmt"

	"repro/internal/linalg"
	"repro/internal/markov"
)

// The production solvers are closed forms: Binomial(k, q) for the stationary
// occupancy and a Binomial convolution for the transient. This file keeps the
// computations the paper states — and the closed forms replaced — as the
// oracles the tests hold them to: Gaussian elimination and power iteration
// on the Eq. (12) matrix for Π (Eq. 13–14), and t matrix-vector steps for the
// occupancy after t intervals.

// oracleMapCal is Algorithm 1 solved the way the paper states it: build the
// Eq. (12) matrix and solve for Π by "gaussian" elimination on the balance
// equations or by "power" iteration of Π₀·Pᵗ. K and the CVR come from the same
// acceptance rule MapCal uses.
func oracleMapCal(k int, pOn, pOff, rho float64, method string) (Result, error) {
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return Result{}, err
	}
	p := bb.TransitionMatrix()
	var pi []float64
	switch method {
	case "gaussian":
		pi, err = linalg.StationaryDistribution(p)
	case "power":
		pi, _, err = linalg.PowerIteration(p, nil, 1e-14, 0)
	default:
		return Result{}, fmt.Errorf("unknown oracle %q", method)
	}
	if err != nil {
		return Result{}, err
	}
	kBlocks, tail := blocksFromStationary(pi, rho)
	return Result{K: kBlocks, Stationary: pi, CVR: tail, Rho: rho, Sources: k, Solver: method}, nil
}

// matrixTransient is the transient engine the closed form replaced: the
// occupancy distribution stepped t times through the dense Eq. (12) matrix,
// O(t·k²) per query.
type matrixTransient struct {
	k  int
	p  *linalg.Matrix
	pi []float64 // stationary distribution, the mixing-time target
}

func newMatrixTransient(k int, pOn, pOff float64) (*matrixTransient, error) {
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return nil, err
	}
	return &matrixTransient{k: k, p: bb.TransitionMatrix(), pi: bb.Stationary()}, nil
}

// distributionAt returns initial·Pᵗ; nil is Π₀, all mass on 0 busy blocks.
func (m *matrixTransient) distributionAt(t int, initial []float64) ([]float64, error) {
	cur := make([]float64, m.k+1)
	next := make([]float64, m.k+1)
	if initial == nil {
		cur[0] = 1
	} else {
		copy(cur, initial)
	}
	for step := 0; step < t; step++ {
		if err := m.p.VecMulInto(next, cur); err != nil {
			return nil, err
		}
		cur, next = next, cur
	}
	return cur, nil
}

// occupancyAt is distributionAt from exactly `from` busy blocks.
func (m *matrixTransient) occupancyAt(t, from int) ([]float64, error) {
	initial := make([]float64, m.k+1)
	initial[from] = 1
	return m.distributionAt(t, initial)
}

// violationAt returns Pr{θ(t) > kBlocks | Π₀}.
func (m *matrixTransient) violationAt(t, kBlocks int) (float64, error) {
	dist, err := m.distributionAt(t, nil)
	if err != nil {
		return 0, err
	}
	return markov.TailFromStationary(dist, kBlocks), nil
}

// mixingTime steps Π₀ through the matrix and returns the first t whose total
// variation distance to the stationary distribution is within tol.
func (m *matrixTransient) mixingTime(tol float64, maxT int) (int, error) {
	cur := make([]float64, m.k+1)
	next := make([]float64, m.k+1)
	cur[0] = 1
	for t := 0; t <= maxT; t++ {
		if totalVariation(cur, m.pi) <= tol {
			return t, nil
		}
		if err := m.p.VecMulInto(next, cur); err != nil {
			return 0, err
		}
		cur, next = next, cur
	}
	return 0, fmt.Errorf("chain not within %v of stationarity after %d steps", tol, maxT)
}

// suffixTail returns Σ_{m>kBlocks} π_m summed from the top down, the order in
// which blocksFromStationary accumulates it.
func suffixTail(pi []float64, kBlocks int) float64 {
	tail := 0.0
	for m := len(pi) - 1; m > kBlocks; m-- {
		tail += pi[m]
	}
	return tail
}
