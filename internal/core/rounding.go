package core

import (
	"fmt"
	"math"

	"repro/internal/cloud"
)

// RoundingPolicy selects how heterogeneous per-VM switch probabilities are
// rounded to the uniform (p_on, p_off) MapCal requires (§IV-E: "if p_on and
// p_off varies among VMs, we need to round them to uniform values").
//
// The mapping table depends on the pair only through the stationary ON
// probability q = p_on/(p_on+p_off), since the occupancy is Binomial(k, q);
// λ = 1 − p_on − p_off shapes only the dynamics. So a policy must round q.
type RoundingPolicy int

const (
	// RoundMean keeps the fleet's mean q and mean λ — the balanced default.
	// By Hoeffding's (1956) Poisson-binomial inequality the Binomial(k, q̄)
	// tail bounds the exact heterogeneous tail above the mean, so whenever
	// K sits above kq̄ (any small ρ) the blocks it reserves meet ρ for the
	// whole fleet. Averaging p_on and p_off separately does not: a mixed
	// fleet can end over ρ.
	RoundMean RoundingPolicy = iota
	// RoundConservative maximises the stationary ON probability: the
	// largest p_on paired with the smallest p_off, so the reservation never
	// under-provisions any VM.
	RoundConservative
)

// RoundSwitchProbabilities derives the uniform (p_on, p_off) for a fleet.
// Uniform fleets pass through exactly regardless of policy.
func RoundSwitchProbabilities(vms []cloud.VM, policy RoundingPolicy) (pOn, pOff float64, err error) {
	if len(vms) == 0 {
		return 0, 0, fmt.Errorf("core: no VMs to round")
	}
	uniform := true
	for _, v := range vms[1:] {
		if v.POn != vms[0].POn || v.POff != vms[0].POff {
			uniform = false
			break
		}
	}
	if uniform {
		return vms[0].POn, vms[0].POff, nil
	}
	switch policy {
	case RoundMean:
		var sumQ, sumRate float64
		for _, v := range vms {
			sumQ += v.POn / (v.POn + v.POff)
			sumRate += v.POn + v.POff
		}
		n := float64(len(vms))
		// p_on = q̄(1 − λ̄), p_off = (1 − q̄)(1 − λ̄), with 1 − λ̄ the mean
		// p_on + p_off, capped so that neither exceeds 1 (a fleet of
		// near-periodic chains can average past it); q̄ stays exact.
		q := sumQ / n
		rate := min(sumRate/n, 1/max(q, 1-q))
		return q * rate, (1 - q) * rate, nil
	case RoundConservative:
		maxOn, minOff := 0.0, math.Inf(1)
		for _, v := range vms {
			maxOn = math.Max(maxOn, v.POn)
			minOff = math.Min(minOff, v.POff)
		}
		return maxOn, minOff, nil
	default:
		return 0, 0, fmt.Errorf("core: unknown rounding policy %d", policy)
	}
}
