package queuing

import (
	"fmt"
	"math/rand"

	"repro/internal/markov"
)

// GeomGeomK analyses the discrete-time finite-source Geom/Geom/K queue with
// no waiting room that a reserved PM realises (§IV-B): k ON-OFF sources
// compete for kBlocks serving windows; a spike arriving while all windows are
// busy is a capacity violation (a "lost customer" — there is no queue to wait
// in).
type GeomGeomK struct {
	bb      *markov.BusyBlocks
	kBlocks int
}

// NewGeomGeomK constructs the model for k sources and kBlocks ≤ k windows.
func NewGeomGeomK(k, kBlocks int, pOn, pOff float64) (*GeomGeomK, error) {
	if kBlocks < 0 || kBlocks > k {
		return nil, fmt.Errorf("queuing: kBlocks = %d outside [0, k=%d]", kBlocks, k)
	}
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return nil, err
	}
	return &GeomGeomK{bb: bb, kBlocks: kBlocks}, nil
}

// Sources returns k.
func (g *GeomGeomK) Sources() int { return g.bb.K() }

// Blocks returns the number of serving windows.
func (g *GeomGeomK) Blocks() int { return g.kBlocks }

// BlockingProbability returns the stationary probability that demand exceeds
// the windows, Pr{θ > K} — identical to the PM's analytic CVR (Eq. 16).
func (g *GeomGeomK) BlockingProbability() float64 {
	return g.bb.TailProbability(g.kBlocks)
}

// Utilization returns E[min(θ, K)]/K, the average fraction of reserved
// blocks actually busy; it quantifies how much of the reservation the spikes
// really use. For K = 0 it returns 0.
func (g *GeomGeomK) Utilization() float64 {
	if g.kBlocks == 0 {
		return 0
	}
	return g.MeanBusyBlocks() / float64(g.kBlocks)
}

// MeanBusyBlocks returns E[min(θ, K)].
func (g *GeomGeomK) MeanBusyBlocks() float64 {
	busy := 0.0
	for m, p := range g.bb.Stationary() {
		busy += float64(min(m, g.kBlocks)) * p
	}
	return busy
}

// OverflowStats summarises one simulated run of the queue.
type OverflowStats struct {
	Steps        int     // simulated steps
	Violations   int     // steps with θ > K
	EmpiricalCVR float64 // Violations / Steps
}

// SimulateCVR runs the occupancy chain for the given number of steps starting
// from steady state and counts the fraction of steps with θ > K — the
// empirical counterpart of BlockingProbability, used to validate the analytic
// machinery end to end.
func (g *GeomGeomK) SimulateCVR(steps int, rng *rand.Rand) (OverflowStats, error) {
	if steps <= 0 {
		return OverflowStats{}, fmt.Errorf("queuing: steps must be positive, got %d", steps)
	}
	// Start from a stationary sample: count ON sources drawn independently.
	cur := 0
	for i := 0; i < g.bb.K(); i++ {
		if g.bb.Source().SampleStationary(rng) == markov.On {
			cur++
		}
	}
	violations := 0
	for t := 0; t < steps; t++ {
		cur = g.bb.Step(cur, rng)
		if cur > g.kBlocks {
			violations++
		}
	}
	return OverflowStats{
		Steps:        steps,
		Violations:   violations,
		EmpiricalCVR: float64(violations) / float64(steps),
	}, nil
}
