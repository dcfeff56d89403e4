package core

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/cloud"
	"repro/internal/workload"
)

// scaleBenchN mirrors internal/sim's scale sweep: 10k by default, the full
// 10k/100k/1M ladder under SCALE_BENCH_FULL=1. The linear placer is skipped
// at 1M — its O(n·m) first-fit would run for hours there, which is exactly
// the point of the index.
func scaleBenchN() []int {
	if os.Getenv("SCALE_BENCH_FULL") != "" {
		return []int{10_000, 100_000, 1_000_000}
	}
	return []int{10_000}
}

func scaleBenchFleet(b *testing.B, n int) ([]cloud.VM, []cloud.PM) {
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
	return vms, pms
}

// BenchmarkScalePlace measures a full FFD-by-R_b consolidation pass through
// the index and through the test-side linear scan. The placements are
// identical (TestPlacerEquivalence); only the first-fit search differs: the
// linear scan probes PMs in id order until one admits, the index finds the
// first admitting PM through the segment tree in O(log m).
func BenchmarkScalePlace(b *testing.B) {
	for _, n := range scaleBenchN() {
		vms, pms := scaleBenchFleet(b, n)
		rb := RBEX{}
		for _, placer := range []struct {
			name  string
			place func() (*Result, error)
		}{
			{"indexed", func() (*Result, error) { return FFDByRb{}.Place(vms, pms) }},
			{"linear", func() (*Result, error) { return firstFit(rb.order(vms), pms, rb.admit) }},
		} {
			if placer.name == "linear" && n >= 1_000_000 {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/%s", n, placer.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := placer.place()
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Unplaced) != 0 {
						b.Fatalf("%d VMs unplaced", len(res.Unplaced))
					}
				}
			})
		}
	}
}
