package queuing

import (
	"fmt"
	"sort"

	"repro/internal/markov"
)

// SweepPoint is one row of a sensitivity sweep: the blocks and analytic CVR
// MapCal assigns for one parameter setting.
type SweepPoint struct {
	K          int     // hosted VMs
	Rho        float64 // CVR budget
	Blocks     int     // MapCal output
	CVR        float64 // analytic CVR with Blocks blocks
	Saving     int     // K − Blocks, blocks shed vs peak provisioning
	SavingFrac float64 // Saving / K
}

// SweepRho evaluates MapCal for a fixed population across a range of CVR
// budgets — the operator's dial between tight guarantees (more reservation)
// and density. Rhos are evaluated in ascending order and the returned points
// follow that order.
func SweepRho(k int, pOn, pOff float64, rhos []float64) ([]SweepPoint, error) {
	if len(rhos) == 0 {
		return nil, fmt.Errorf("queuing: no rho values to sweep")
	}
	// One chain solve serves every rho: the stationary distribution does not
	// depend on the budget.
	bb, err := markov.NewBusyBlocks(k, pOn, pOff)
	if err != nil {
		return nil, err
	}
	pi := bb.Stationary()
	sorted := append([]float64(nil), rhos...)
	sort.Float64s(sorted)
	out := make([]SweepPoint, 0, len(sorted))
	for _, rho := range sorted {
		if rho < 0 || rho >= 1 {
			return nil, fmt.Errorf("queuing: rho = %v outside [0,1)", rho)
		}
		blocks, tail := blocksFromStationary(pi, rho)
		out = append(out, SweepPoint{
			K:          k,
			Rho:        rho,
			Blocks:     blocks,
			CVR:        tail,
			Saving:     k - blocks,
			SavingFrac: float64(k-blocks) / float64(k),
		})
	}
	return out, nil
}

// SweepK evaluates MapCal across populations at a fixed budget — the
// consolidation-density curve: how the shed fraction grows with multiplexing.
func SweepK(ks []int, pOn, pOff, rho float64) ([]SweepPoint, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("queuing: no k values to sweep")
	}
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	out := make([]SweepPoint, 0, len(sorted))
	for _, k := range sorted {
		res, err := MapCal(k, pOn, pOff, rho)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			K:          k,
			Rho:        rho,
			Blocks:     res.K,
			CVR:        res.CVR,
			Saving:     k - res.K,
			SavingFrac: float64(k-res.K) / float64(k),
		})
	}
	return out, nil
}

// BlocksForBudget inverts the sweep: the loosest rho (among the candidates)
// that still achieves at most maxBlocks blocks for k VMs, or an error when
// even the loosest candidate needs more.
func BlocksForBudget(k, maxBlocks int, pOn, pOff float64, rhos []float64) (SweepPoint, error) {
	points, err := SweepRho(k, pOn, pOff, rhos)
	if err != nil {
		return SweepPoint{}, err
	}
	// Points are in ascending rho; blocks are non-increasing in rho. Find
	// the smallest rho meeting the budget.
	for _, p := range points {
		if p.Blocks <= maxBlocks {
			return p, nil
		}
	}
	return SweepPoint{}, fmt.Errorf("queuing: no candidate rho fits %d VMs in %d blocks", k, maxBlocks)
}
