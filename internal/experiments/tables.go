package experiments

import (
	"repro/internal/queuing"
	"repro/internal/telemetry"
)

// This file holds the concurrent builder for the solve-heavy precomputation
// every experiment needs before it can run: the mapping table (one MapCal per
// k ≤ d). Individual solves are independent, so they fan out over
// ParallelMap; results come back in index order, so a parallel build is
// byte-identical to the sequential one regardless of worker count.

// ParallelMappingTable builds the Algorithm 2 mapping table like
// queuing.NewMappingTableTraced, but computes the d per-k MapCal solves
// across a worker pool (workers = 0 uses all cores, 1 is sequential). The
// tracer, when enabled, sees the same d SolveEvents a sequential build emits,
// in arbitrary order; it must accept concurrent Emit calls, which all tracers
// in internal/telemetry do.
func ParallelMappingTable(d int, pOn, pOff, rho float64, workers int, tr telemetry.Tracer) (*queuing.MappingTable, error) {
	if d < 1 {
		return queuing.NewMappingTable(d, pOn, pOff, rho) // reuse the error path
	}
	ks, err := ParallelMap(d, workers, func(i int) (int, error) {
		res, err := queuing.MapCalTraced(i+1, pOn, pOff, rho, tr)
		if err != nil {
			return 0, err
		}
		return res.K, nil
	})
	if err != nil {
		return nil, err
	}
	blocks := make([]int, d+1)
	copy(blocks[1:], ks)
	return queuing.NewMappingTableFromBlocks(blocks, pOn, pOff, rho)
}
