package markov

import (
	"fmt"
	"math"
	"math/rand"
)

// State is the state of an ON-OFF chain: ON (spike, demand R_p = R_b + R_e)
// or OFF (normal traffic, demand R_b). One byte, because the demand sources
// and the simulator keep a dense column of them with an entry per VM (int8,
// not uint8: encoding/json would write a []uint8-kinded slice as base64).
type State int8

const (
	// Off is the normal-traffic state of the workload chain.
	Off State = iota
	// On is the traffic-surge (spike) state of the workload chain.
	On
)

// String returns "ON" or "OFF".
func (s State) String() string {
	if s == On {
		return "ON"
	}
	return "OFF"
}

// OnOff is the two-state Markov chain of Fig. 2. POn is the probability of
// switching OFF→ON at a step boundary (spike frequency); POff is the
// probability of switching ON→OFF (inverse spike duration).
type OnOff struct {
	POn  float64
	POff float64
}

// NewOnOff validates and constructs an ON-OFF chain. Both probabilities must
// lie in (0, 1]: the paper requires p_on, p_off > 0 so the chain is
// irreducible and a unique limiting distribution exists (Proposition 1).
func NewOnOff(pOn, pOff float64) (OnOff, error) {
	if !(pOn > 0 && pOn <= 1) {
		return OnOff{}, fmt.Errorf("markov: p_on = %v outside (0,1]", pOn)
	}
	if !(pOff > 0 && pOff <= 1) {
		return OnOff{}, fmt.Errorf("markov: p_off = %v outside (0,1]", pOff)
	}
	return OnOff{POn: pOn, POff: pOff}, nil
}

// StationaryOn returns the long-run fraction of time the chain spends in ON:
// p_on / (p_on + p_off).
func (c OnOff) StationaryOn() float64 { return c.POn / (c.POn + c.POff) }

// StationaryOff returns the long-run fraction of time spent in OFF.
func (c OnOff) StationaryOff() float64 { return c.POff / (c.POn + c.POff) }

// MeanSpikeDuration returns the expected number of consecutive steps spent in
// ON once a spike starts: 1/p_off (geometric sojourn).
func (c OnOff) MeanSpikeDuration() float64 { return 1 / c.POff }

// MeanGapDuration returns the expected number of consecutive steps spent in
// OFF between spikes: 1/p_on.
func (c OnOff) MeanGapDuration() float64 { return 1 / c.POn }

// SpikeRate returns the long-run expected number of spike starts per step,
// i.e. the probability a given step is an OFF→ON transition.
func (c OnOff) SpikeRate() float64 { return c.StationaryOff() * c.POn }

// Step samples the successor of state s using rng.
func (c OnOff) Step(s State, rng *rand.Rand) State {
	u := rng.Float64()
	if s == On {
		if u < c.POff {
			return Off
		}
		return On
	}
	if u < c.POn {
		return On
	}
	return Off
}

// Trace generates a state trajectory of the given length starting from
// `start`. The returned slice includes the start state at index 0.
func (c OnOff) Trace(start State, length int, rng *rand.Rand) []State {
	if length <= 0 {
		return nil
	}
	out := make([]State, length)
	out[0] = start
	for t := 1; t < length; t++ {
		out[t] = c.Step(out[t-1], rng)
	}
	return out
}

// SampleStationary samples a state from the stationary distribution, used to
// start simulations in steady state.
func (c OnOff) SampleStationary(rng *rand.Rand) State {
	if rng.Float64() < c.StationaryOn() {
		return On
	}
	return Off
}

// TransitionMatrix returns the 2×2 one-step matrix [[1−p_on, p_on],
// [p_off, 1−p_off]] with state order (OFF, ON).
func (c OnOff) TransitionMatrix() [2][2]float64 {
	return [2][2]float64{
		{1 - c.POn, c.POn},
		{c.POff, 1 - c.POff},
	}
}

// Lambda returns the second eigenvalue λ = 1 − p_on − p_off of the one-step
// matrix. It is the chain's memory: the lag-1 autocorrelation of the ON
// indicator, and the geometric rate at which any initial condition forgets
// itself (|λ| < 1 whenever both probabilities are positive and not both 1).
func (c OnOff) Lambda() float64 { return 1 - c.POn - c.POff }

// TStepOn returns the closed-form t-step ON probabilities of the chain:
//
//	turnOn = Pr{X_t = ON | X_0 = OFF} = π_on·(1 − λᵗ)
//	stayOn = Pr{X_t = ON | X_0 = ON}  = π_on + π_off·λᵗ
//
// with π_on = p_on/(p_on+p_off) and λ = 1 − p_on − p_off. Both follow from
// diagonalising the 2×2 matrix: p(t) = π_on + (p(0) − π_on)·λᵗ. λᵗ is
// evaluated as math.Pow(λ, t), which is exact for the sign alternation of
// negative λ at integer exponents, and the results are clamped to [0, 1]
// against round-off so downstream binomial rows never see p slightly outside
// the unit interval. t must be ≥ 0; t = 0 returns (0, 1).
func (c OnOff) TStepOn(t int) (turnOn, stayOn float64) {
	if t < 0 {
		panic("markov: TStepOn needs t ≥ 0")
	}
	if t == 0 {
		return 0, 1
	}
	piOn := c.StationaryOn()
	lt := math.Pow(c.Lambda(), float64(t))
	turnOn = piOn * (1 - lt)
	stayOn = piOn + (1-piOn)*lt
	return clampUnit(turnOn), clampUnit(stayOn)
}

// clampUnit clamps a probability to [0, 1] against floating-point round-off.
func clampUnit(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// OnFraction returns the empirical fraction of ON states in a trace; it
// converges to StationaryOn for long traces.
func OnFraction(trace []State) float64 {
	if len(trace) == 0 {
		return 0
	}
	on := 0
	for _, s := range trace {
		if s == On {
			on++
		}
	}
	return float64(on) / float64(len(trace))
}

// Burst is one maximal run of consecutive ON states in a trace.
type Burst struct {
	Start  int // index of the first ON step
	Length int // number of consecutive ON steps
}

// Bursts extracts all maximal ON-runs from a trace, enabling empirical checks
// of spike frequency and duration.
func Bursts(trace []State) []Burst {
	var bursts []Burst
	i := 0
	for i < len(trace) {
		if trace[i] != On {
			i++
			continue
		}
		start := i
		for i < len(trace) && trace[i] == On {
			i++
		}
		bursts = append(bursts, Burst{Start: start, Length: i - start})
	}
	return bursts
}

// MeanBurstLength returns the average length of ON-runs in a trace, or 0 if
// the trace contains no spikes. It converges to MeanSpikeDuration.
func MeanBurstLength(trace []State) float64 {
	bursts := Bursts(trace)
	if len(bursts) == 0 {
		return 0
	}
	total := 0
	for _, b := range bursts {
		total += b.Length
	}
	return float64(total) / float64(len(bursts))
}

// Autocorrelation returns the lag-l autocorrelation of the ON indicator of a
// trace. For an ON-OFF chain the theoretical value is (1 − p_on − p_off)^l,
// the signature that distinguishes this temporal model from memoryless
// stochastic-bin-packing formulations (§II).
func Autocorrelation(trace []State, lag int) float64 {
	n := len(trace) - lag
	if lag < 0 || n <= 1 {
		return 0
	}
	mean := OnFraction(trace)
	varSum, covSum := 0.0, 0.0
	for i, s := range trace {
		x := indicator(s) - mean
		varSum += x * x
		if i < n {
			covSum += x * (indicator(trace[i+lag]) - mean)
		}
	}
	if varSum == 0 {
		return 0
	}
	return (covSum / float64(n)) / (varSum / float64(len(trace)))
}

// TheoreticalAutocorrelation returns (1 − p_on − p_off)^lag, the exact
// autocorrelation of the stationary ON indicator.
func (c OnOff) TheoreticalAutocorrelation(lag int) float64 {
	return math.Pow(1-c.POn-c.POff, float64(lag))
}

func indicator(s State) float64 {
	if s == On {
		return 1
	}
	return 0
}
