package queuing_test

import (
	"fmt"

	"repro/internal/queuing"
)

// The complete Algorithm 1 call: how many blocks do 12 bursty VMs need?
func ExampleMapCal() {
	res, err := queuing.MapCal(12, 0.01, 0.09, 0.01)
	if err != nil {
		panic(err)
	}
	fmt.Printf("K=%d, reduced=%v, CVR=%.4f\n", res.K, res.Reduced(), res.CVR)
	// Output:
	// K=4, reduced=true, CVR=0.0043
}

// Precomputing mapping(k) for Algorithm 2. mapping(2)=1 is an exact
// boundary: with q = 0.1 the tail beyond one block is q² = ρ = 0.01, so a
// single block satisfies CVR ≤ ρ with equality (the old head-mass
// accumulation lost this case to round-off and over-provisioned K=2).
func ExampleNewMappingTable() {
	table, err := queuing.NewMappingTable(8, 0.01, 0.09, 0.01)
	if err != nil {
		panic(err)
	}
	for k := 1; k <= 8; k++ {
		fmt.Printf("mapping(%d)=%d ", k, table.Blocks(k))
	}
	fmt.Println()
	// Output:
	// mapping(1)=1 mapping(2)=1 mapping(3)=2 mapping(4)=2 mapping(5)=2 mapping(6)=3 mapping(7)=3 mapping(8)=3
}

// The queue-theoretic view of a reserved PM: blocking probability and how
// busy the reserved blocks actually are.
func ExampleGeomGeomK() {
	q, err := queuing.NewGeomGeomK(12, 4, 0.01, 0.09)
	if err != nil {
		panic(err)
	}
	bp := q.BlockingProbability()
	util := q.Utilization()
	fmt.Printf("blocking %.4f, utilisation %.2f\n", bp, util)
	// Output:
	// blocking 0.0043, utilisation 0.30
}

// Transient questions: how long until a fresh consolidation first overruns
// its reservation, and how fast it reaches steady state.
func ExampleTransient() {
	tr, err := queuing.NewTransient(12, 0.01, 0.09)
	if err != nil {
		panic(err)
	}
	h, _ := tr.MeanTimeToViolation(4)
	mix, _ := tr.MixingTime(0.01, 100000)
	fmt.Printf("mean time to first violation from empty: %.0f intervals; mixing time: %d\n", h[0], mix)
	// Output:
	// mean time to first violation from empty: 873 intervals; mixing time: 37
}
