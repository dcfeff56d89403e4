package sim

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/workload"
)

// scaleN returns the fleet sizes for the scale benchmarks. The full sweep
// (10k, 100k, 1M) runs when SCALE_BENCH_FULL is set; plain `go test -bench`
// stops at 10k so the suite stays quick.
func scaleN() []int {
	if os.Getenv("SCALE_BENCH_FULL") != "" {
		return []int{10_000, 100_000, 1_000_000}
	}
	return []int{10_000}
}

func buildScalePlacement(b *testing.B, n int) *cloud.Placement {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, n), rng)
	if err != nil {
		b.Fatal(err)
	}
	pms, err := workload.GeneratePMs(n, 80, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	// QUEUE placement, not RB: an RB pack fills PMs to their Rb sum, so at
	// scale nearly every step triggers thousands of migrations whose target
	// search dominates the measurement. The burstiness-aware pack keeps CVR
	// near ρ, so per-op is the steady-state sync + measure loop the ledger
	// and the shards exist for, with occasional migrations on top.
	res, err := core.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}.Place(vms, pms)
	if err != nil {
		b.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		b.Fatalf("QueuingFFD left %d VMs unplaced", len(res.Unplaced))
	}
	return res.Placement
}

// BenchmarkScaleStep measures one simulator interval — source step, the map
// scan into the dense new-state column, demand sync, measurement, and
// reactive migration — over a QUEUE-packed fleet driven by the hash-keyed
// demand source, at shard counts 1, 2 and 8. Per-op is a single step(), not a
// full run, so the numbers isolate the steady-state hot loop from
// construction. Only the sync walk and the measurement pass are sharded
// (Config.Shards); they are a minority of a step, so the shard counts differ
// by that minority at most, and tie on a single-core host.
func BenchmarkScaleStep(b *testing.B) {
	for _, n := range scaleN() {
		placement := buildScalePlacement(b, n)
		for _, shards := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("n=%d/shards=%d", n, shards), func(b *testing.B) {
				fleet, err := workload.NewHashedFleet(placement.VMs(), 42)
				if err != nil {
					b.Fatal(err)
				}
				cfg := Config{
					Intervals:         1 << 20, // step() ignores it; Run's horizon only
					Rho:               0.01,
					EnableMigration:   true,
					MigrationOverhead: 0.1,
					Shards:            shards,
				}
				s, err := NewWithSource(placement, nil, cfg, fleet, rand.New(rand.NewSource(1)))
				if err != nil {
					b.Fatal(err)
				}
				// Warm up past the all-OFF start: the first steps flip a burst
				// of states and grow the heap to its steady footprint, which
				// would otherwise dominate a 1-iteration measurement.
				const warmup = 5
				for i := 0; i < warmup; i++ {
					if err := s.step(i); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.step(warmup + i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
