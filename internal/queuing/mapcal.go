// Package queuing implements the paper's reservation quantification: MapCal
// (Algorithm 1), which computes the minimum number of reservation blocks K a
// PM hosting k bursty VMs needs so that its capacity-violation ratio stays
// below a threshold ρ, plus the derived metrics of the underlying
// finite-source Geom/Geom/K queue with no waiting room.
package queuing

import (
	"fmt"

	"repro/internal/markov"
)

// SolverName labels the closed-form Binomial solve in Result.Solver and in
// telemetry SolveEvents.
const SolverName = "closed_form"

// Result captures everything MapCal derives for one (k, p_on, p_off, ρ)
// instance: the block count K, the stationary occupancy distribution Π, and
// the analytic CVR that K blocks yield (the tail mass beyond K).
type Result struct {
	K          int       // minimum number of blocks satisfying CVR ≤ ρ
	Stationary []float64 // π_0 … π_k, long-run occupancy distribution
	CVR        float64   // analytic capacity-violation ratio with K blocks
	Rho        float64   // the threshold the result was computed for
	Sources    int       // k, number of hosted VMs
	Solver     string    // always SolverName
}

// Reduced reports whether MapCal managed to reserve fewer blocks than VMs
// (K < k), i.e. whether consolidation gains anything over peak provisioning.
func (r Result) Reduced() bool { return r.K < r.Sources }

// MapCal is Algorithm 1. Given k VMs sharing a PM, their common switch
// probabilities, and the CVR threshold ρ, it computes the stationary
// occupancy distribution Π of the busy-blocks chain and returns the minimum
// K with Σ_{m=0}^{K} π_m ≥ 1 − ρ (Eq. 15).
//
// The paper states the solve as "build the Eq. (12) matrix, solve Π·P = Π by
// Gaussian elimination (Eq. 14)"; because the k sources are iid, Π is
// Binomial(k, q) in closed form and MapCal takes that O(k) path. Tests and
// fuzzing hold it to Gaussian and power-iteration oracles within 1e-10.
//
// When even K = k−1 leaves too much tail mass, K = k is returned (every VM
// keeps its own block and the CVR is exactly 0), matching the paper's
// requirement that the initial k-block configuration never violates.
func MapCal(k int, pOn, pOff, rho float64) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("queuing: k must be ≥ 1, got %d", k)
	}
	if rho < 0 || rho >= 1 {
		return Result{}, fmt.Errorf("queuing: rho = %v outside [0,1)", rho)
	}
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return Result{}, fmt.Errorf("queuing: %w", err)
	}
	pi := bb.Stationary()
	kBlocks, tail := blocksFromStationary(pi, rho)
	return Result{
		K:          kBlocks,
		Stationary: pi,
		CVR:        tail,
		Rho:        rho,
		Sources:    k,
		Solver:     SolverName,
	}, nil
}

// tailEpsilon absorbs round-off at the acceptance boundary: a candidate K is
// accepted when the tail mass beyond it is ≤ ρ·(1 + tailEpsilon). Without the
// slack, boundaries where the tail equals ρ exactly (e.g. k=2, q=0.1,
// ρ=0.01: tail = q² = ρ) flip K by one depending on summation order — the
// old head-mass test and TailFromStationary disagreed in exactly those
// cases. The slack is relative, not absolute, so ρ=0 still demands a tail of
// exactly zero and genuinely tiny tails (q^k can reach 1e-12 at modest k)
// are never waved through.
const tailEpsilon = 1e-12

// blocksFromStationary returns the minimum K whose tail mass
// Pr{θ > K} = Σ_{m>K} π_m is ≤ ρ (up to relative tailEpsilon), capped at
// k = len(pi)−1, together with that tail (0 at K = k). The tail is
// accumulated backwards as a direct suffix sum rather than 1 − head: small
// tails survive (a head sum within one ulp of 1 makes 1 − head collapse to
// exactly 0, silently accepting a positive tail at ρ = 0, or inflates a
// 1e-19 tail to 1e-16). Reporting the accepted sum as the CVR keeps the
// reported figure the one the acceptance test actually compared with ρ.
func blocksFromStationary(pi []float64, rho float64) (blocks int, tail float64) {
	bound := rho * (1 + tailEpsilon)
	blocks = len(pi) - 1
	sum := 0.0
	for kBlocks := blocks - 1; kBlocks >= 0; kBlocks-- {
		sum += pi[kBlocks+1]
		if sum > bound {
			break
		}
		blocks, tail = kBlocks, sum
	}
	return blocks, tail
}

// MappingTable precomputes mapping[k] = MapCal(k).K for all k in [1, d],
// the table QueuingFFD consults during placement (Algorithm 2, lines 1–6).
// Index 0 is 0 by definition (an empty PM needs no blocks).
type MappingTable struct {
	pOn, pOff float64
	rho       float64
	blocks    []int // blocks[k] = K for k hosted VMs, k ∈ [0, d]
}

// NewMappingTable computes the table for the given maximum VM count d.
func NewMappingTable(d int, pOn, pOff, rho float64) (*MappingTable, error) {
	return NewMappingTableTraced(d, pOn, pOff, rho, nil)
}

// Blocks returns mapping(k). It panics when k is outside [0, d]; the
// consolidation layer is responsible for respecting the VM cap.
func (t *MappingTable) Blocks(k int) int {
	if k < 0 || k >= len(t.blocks) {
		panic(fmt.Sprintf("queuing: mapping(%d) outside precomputed range [0,%d]", k, len(t.blocks)-1))
	}
	return t.blocks[k]
}

// MaxVMs returns d, the largest k the table covers.
func (t *MappingTable) MaxVMs() int { return len(t.blocks) - 1 }

// Rho returns the CVR threshold the table was computed for.
func (t *MappingTable) Rho() float64 { return t.rho }

// POn returns the common OFF→ON switch probability.
func (t *MappingTable) POn() float64 { return t.pOn }

// POff returns the common ON→OFF switch probability.
func (t *MappingTable) POff() float64 { return t.pOff }

// Savings returns k − mapping(k), the number of blocks the queue sheds
// relative to peak provisioning for k VMs.
func (t *MappingTable) Savings(k int) int { return k - t.Blocks(k) }
