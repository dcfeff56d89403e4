package queuing

import (
	"fmt"

	"repro/internal/markov"
)

// This file extends MapCal to heterogeneous fleets without the rounding step
// of §IV-E. The key observation: the k ON-OFF sources are mutually
// independent chains, so in steady state source i is ON with probability
// q_i = p_on^i/(p_on^i+p_off^i) independently of the others — making the
// stationary distribution of the busy-block count θ a Poisson-binomial over
// (q_1, …, q_k). By ergodicity the long-run fraction of time θ > K (the CVR
// of Eq. 16) equals that stationary tail exactly, so the minimum block count
// can be computed without forcing a common (p_on, p_off). The temporal
// parameters still matter for *transient* behaviour (violation-episode
// length), but the paper's performance constraint is a time-fraction bound,
// which this computes exactly.

// PoissonBinomialPMF returns the distribution of the number of successes
// among independent Bernoulli trials with the given probabilities, via the
// standard O(k²) dynamic program. An empty input yields the point mass on 0.
//
// The DP runs in place over a single allocation: after trial i the prefix
// pmf[0..i] holds the distribution over the first i trials, and each update
// sweeps backwards (pmf[m] = pmf[m−1]·q + pmf[m]·(1−q)) so the values it
// reads are still from the previous round. The old version allocated a fresh
// slice per trial — O(k²) garbage on the hetero sweep's hottest call.
func PoissonBinomialPMF(qs []float64) ([]float64, error) {
	for i, q := range qs {
		if q < 0 || q > 1 {
			return nil, fmt.Errorf("queuing: probability %v at index %d outside [0,1]", q, i)
		}
	}
	pmf := make([]float64, len(qs)+1)
	pmf[0] = 1
	for i, q := range qs {
		for m := i + 1; m > 0; m-- {
			pmf[m] = pmf[m-1]*q + pmf[m]*(1-q)
		}
		pmf[0] *= 1 - q
	}
	return pmf, nil
}

// StationaryOnProbabilities maps VM switch probabilities to their stationary
// ON probabilities q_i.
func StationaryOnProbabilities(pOns, pOffs []float64) ([]float64, error) {
	if len(pOns) != len(pOffs) {
		return nil, fmt.Errorf("queuing: %d p_on values vs %d p_off values", len(pOns), len(pOffs))
	}
	qs := make([]float64, len(pOns))
	for i := range pOns {
		chain, err := markov.NewOnOff(pOns[i], pOffs[i])
		if err != nil {
			return nil, fmt.Errorf("queuing: VM %d: %w", i, err)
		}
		qs[i] = chain.StationaryOn()
	}
	return qs, nil
}

// HeteroSolverName labels the Poisson-binomial fast path in Result.Solver
// and telemetry; like the closed-form homogeneous path it never builds a
// transition matrix.
const HeteroSolverName = "poisson_binomial"

// HeteroResult is the heterogeneous counterpart of Result.
type HeteroResult struct {
	K          int       // minimum blocks with CVR ≤ rho
	Stationary []float64 // Poisson-binomial occupancy distribution
	CVR        float64   // exact tail beyond K
	Rho        float64
	Sources    int
	Solver     string // always HeteroSolverName
}

// MapCalHetero computes the minimum number of reservation blocks for k VMs
// with *individual* switch probabilities, exactly — no rounding to uniform
// values. With identical inputs it reproduces MapCal (the busy-blocks chain's
// stationary distribution is Binomial(k, q), asserted by tests).
func MapCalHetero(pOns, pOffs []float64, rho float64) (HeteroResult, error) {
	if len(pOns) == 0 {
		return HeteroResult{}, fmt.Errorf("queuing: no sources")
	}
	if rho < 0 || rho >= 1 {
		return HeteroResult{}, fmt.Errorf("queuing: rho = %v outside [0,1)", rho)
	}
	qs, err := StationaryOnProbabilities(pOns, pOffs)
	if err != nil {
		return HeteroResult{}, err
	}
	pmf, err := PoissonBinomialPMF(qs)
	if err != nil {
		return HeteroResult{}, err
	}
	kBlocks, tail := blocksFromStationary(pmf, rho)
	return HeteroResult{
		K:          kBlocks,
		Stationary: pmf,
		CVR:        tail,
		Rho:        rho,
		Sources:    len(pOns),
		Solver:     HeteroSolverName,
	}, nil
}
