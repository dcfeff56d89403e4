package core

import (
	"fmt"
	"math"

	"repro/internal/cloud"
)

// EffectiveSizing is the stochastic-bin-packing comparator from the related
// work the paper positions itself against (§II, refs [6], [10], [18]): each
// VM is packed as a single "effective size" derived from the mean and
// variance of its stationary demand under a normal approximation, with no
// temporal model. A PM is admitted when
//
//	Σ mean_i + z(ε) · sqrt(Σ var_i) ≤ C
//
// where z(ε) is the standard-normal quantile at 1−ε, so the *instantaneous*
// overflow probability is ≈ ε. The stationary demand of an ON-OFF VM is
// Bernoulli: mean = R_b + q·R_e, var = q·(1−q)·R_e² with q = π_ON. What this
// baseline misses — and what the paper's Fig. 9 punishes it for — is spike
// *duration*: ε bounds the fraction of time in overflow just like ρ, but says
// nothing about how long each overflow episode lasts or how often resizing
// must escalate to migration.
type EffectiveSizing struct {
	// Epsilon is the per-PM instantaneous overflow budget (ε ∈ (0, 0.5]).
	Epsilon float64
	// MaxVMsPerPM optionally caps VMs per PM (0 = unlimited).
	MaxVMsPerPM int
}

// Name returns "SBP".
func (EffectiveSizing) Name() string { return "SBP" }

// Place runs FFD ordered by mean demand descending under the aggregated
// normal-approximation constraint.
func (s EffectiveSizing) Place(vms []cloud.VM, pms []cloud.PM) (*Result, error) {
	if s.Epsilon <= 0 || s.Epsilon > 0.5 {
		return nil, fmt.Errorf("core: SBP epsilon = %v outside (0, 0.5]", s.Epsilon)
	}
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	z := normalQuantile(1 - s.Epsilon)
	ordered := sortByDecreasing(vms, func(v cloud.VM) float64 { return demandMean(v) })
	return firstFit(ordered, pms, func(p *cloud.Placement, vm cloud.VM, pmID int) bool {
		if s.MaxVMsPerPM > 0 && p.CountOn(pmID) >= s.MaxVMsPerPM {
			return false
		}
		pm, _ := p.PM(pmID)
		mean := demandMean(vm)
		variance := demandVariance(vm)
		for _, hosted := range p.VMsOn(pmID) {
			mean += demandMean(hosted)
			variance += demandVariance(hosted)
		}
		return mean+z*math.Sqrt(variance) <= pm.Capacity+capEps
	})
}

// demandMean returns E[W] = R_b + π_ON·R_e of the stationary demand.
func demandMean(v cloud.VM) float64 {
	q := v.POn / (v.POn + v.POff)
	return v.Rb + q*v.Re
}

// demandVariance returns Var[W] = π_ON·(1−π_ON)·R_e².
func demandVariance(v cloud.VM) float64 {
	q := v.POn / (v.POn + v.POff)
	return q * (1 - q) * v.Re * v.Re
}

// normalQuantile returns the standard-normal quantile Φ⁻¹(p) for p ∈ (0, 1)
// using the Beasley-Springer-Moro rational approximation (absolute error
// below 1e-9 over the full range), sufficient for sizing decisions.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("core: normalQuantile probability %v outside (0,1)", p))
	}
	a := [...]float64{
		-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [...]float64{
		-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01,
	}
	c := [...]float64{
		-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [...]float64{
		7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00,
	}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
