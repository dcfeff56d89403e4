package queuing

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// MapCalTraced is MapCal with observability: when the tracer is enabled the
// solve is timed and a telemetry.SolveEvent is emitted. The disabled path
// costs one branch — MapCal itself is untouched.
func MapCalTraced(k int, pOn, pOff, rho float64, tr telemetry.Tracer) (Result, error) {
	tr = telemetry.OrNop(tr)
	if !tr.Enabled() {
		return MapCal(k, pOn, pOff, rho)
	}
	start := time.Now()
	res, err := MapCal(k, pOn, pOff, rho)
	if err != nil {
		return res, err
	}
	tr.Emit(telemetry.SolveEvent{
		Sources:  k,
		Blocks:   res.K,
		CVR:      res.CVR,
		Rho:      rho,
		Duration: time.Since(start),
		Solver:   res.Solver,
	})
	return res, nil
}

// MapCalHeteroTraced is MapCalHetero with the same observability contract as
// MapCalTraced; emitted events carry Hetero = true.
func MapCalHeteroTraced(pOns, pOffs []float64, rho float64, tr telemetry.Tracer) (HeteroResult, error) {
	tr = telemetry.OrNop(tr)
	if !tr.Enabled() {
		return MapCalHetero(pOns, pOffs, rho)
	}
	start := time.Now()
	res, err := MapCalHetero(pOns, pOffs, rho)
	if err != nil {
		return res, err
	}
	tr.Emit(telemetry.SolveEvent{
		Sources:  len(pOns),
		Blocks:   res.K,
		CVR:      res.CVR,
		Rho:      rho,
		Duration: time.Since(start),
		Hetero:   true,
		Solver:   res.Solver,
	})
	return res, nil
}

// NewMappingTableTraced precomputes the table like NewMappingTable, emitting
// one SolveEvent per k when the tracer is enabled.
func NewMappingTableTraced(d int, pOn, pOff, rho float64, tr telemetry.Tracer) (*MappingTable, error) {
	if d < 1 {
		return nil, fmt.Errorf("queuing: d must be ≥ 1, got %d", d)
	}
	t := &MappingTable{pOn: pOn, pOff: pOff, rho: rho, blocks: make([]int, d+1)}
	for k := 1; k <= d; k++ {
		res, err := MapCalTraced(k, pOn, pOff, rho, tr)
		if err != nil {
			return nil, err
		}
		t.blocks[k] = res.K
	}
	return t, nil
}
