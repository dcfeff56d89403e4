package queuing

import (
	"fmt"
	"math"
	"testing"
)

// The fast-path engine must be indistinguishable from the paper's stated
// Gaussian solve. This file pins (a) the solver-agreement bound, (b) the
// acceptance-boundary semantics of blocksFromStationary, and (c) the
// MappingTable monotonicity properties Algorithm 2 relies on.

// TestSolverAgreement sweeps a (k, p_on, p_off, ρ) grid and demands that the
// closed-form, Gaussian, and power-iteration solvers produce the same K and
// stationary distributions within 1e-10 — the acceptance bound of the
// fast-path engine.
func TestSolverAgreement(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8, 16, 32, 64} {
		for _, probs := range [][2]float64{
			{0.01, 0.09}, {0.05, 0.15}, {0.1, 0.3}, {0.5, 0.5}, {0.3, 0.05}, {0.9, 0.8},
		} {
			for _, rho := range []float64{0.001, 0.01, 0.05, 0.2} {
				pOn, pOff := probs[0], probs[1]
				name := fmt.Sprintf("k=%d,pOn=%g,pOff=%g,rho=%g", k, pOn, pOff, rho)
				fast, err := MapCalWithSolver(k, pOn, pOff, rho, SolverClosedForm)
				if err != nil {
					t.Fatalf("%s: closed form: %v", name, err)
				}
				gauss, err := MapCalWithSolver(k, pOn, pOff, rho, SolverGaussian)
				if err != nil {
					t.Fatalf("%s: gaussian: %v", name, err)
				}
				power, err := MapCalWithSolver(k, pOn, pOff, rho, SolverPower)
				if err != nil {
					t.Fatalf("%s: power: %v", name, err)
				}
				if fast.K != gauss.K || fast.K != power.K {
					t.Errorf("%s: K disagrees: closed=%d gaussian=%d power=%d",
						name, fast.K, gauss.K, power.K)
				}
				for i := range fast.Stationary {
					if d := math.Abs(fast.Stationary[i] - gauss.Stationary[i]); d > 1e-10 {
						t.Errorf("%s: |closed−gaussian| = %g at state %d", name, d, i)
					}
					if d := math.Abs(fast.Stationary[i] - power.Stationary[i]); d > 1e-10 {
						t.Errorf("%s: |closed−power| = %g at state %d", name, d, i)
					}
				}
				if fast.Solver != "closed_form" || gauss.Solver != "gaussian" || power.Solver != "power" {
					t.Errorf("%s: solver labels %q/%q/%q", name, fast.Solver, gauss.Solver, power.Solver)
				}
			}
		}
	}
}

// TestMapCalDefaultIsFastPath pins that plain MapCal takes the closed-form
// path — the tentpole routing, observable through Result.Solver.
func TestMapCalDefaultIsFastPath(t *testing.T) {
	res, err := MapCal(12, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solver != "closed_form" {
		t.Fatalf("MapCal routed through %q, want closed_form", res.Solver)
	}
	het, err := MapCalHetero([]float64{0.01, 0.05}, []float64{0.09, 0.15}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if het.Solver != HeteroSolverName {
		t.Fatalf("MapCalHetero labelled %q, want %q", het.Solver, HeteroSolverName)
	}
}

// TestBlocksFromStationaryBoundary is the regression test for the head-mass
// accumulation bug: when the tail beyond K equals ρ up to round-off, K must
// be accepted (CVR ≤ ρ holds with equality), not bumped by one.
func TestBlocksFromStationaryBoundary(t *testing.T) {
	cases := []struct {
		name string
		pi   []float64
		rho  float64
		want int
	}{
		// Exact boundary: tail beyond 0 blocks is exactly ρ.
		{"exact", []float64{0.9, 0.1}, 0.1, 0},
		// The tail overshoots ρ by less than the relative slack ρ·1e-12:
		// round-off, not a real violation — still accepted.
		{"within-slack", []float64{0.9 - 1e-15, 0.1 + 1e-15}, 0.1, 0},
		// The tail overshoots by far more than the slack: must reject K=0.
		{"beyond-slack", []float64{0.9 - 1e-9, 0.1 + 1e-9}, 0.1, 1},
		// ρ=0 admits no slack at all: any positive tail forces K=k even when
		// the head mass rounds to 1 (the k=2 tail here is far below one ulp
		// of 1, so the old 1−head test silently accepted K=1).
		{"rho-zero", []float64{0.9, 0.1 - 1e-18, 1e-18}, 0, 2},
		// The real instance behind the example-test pin: k=2, q=0.1,
		// ρ=0.01 ⇒ tail beyond one block is q² = ρ exactly.
		{"mapcal-k2", nil, 0.01, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pi == nil {
				res, err := MapCal(2, 0.01, 0.09, tc.rho)
				if err != nil {
					t.Fatal(err)
				}
				if res.K != tc.want {
					t.Fatalf("MapCal(2, 0.01, 0.09, %g).K = %d, want %d", tc.rho, res.K, tc.want)
				}
				return
			}
			if got := blocksFromStationary(tc.pi, tc.rho); got != tc.want {
				t.Fatalf("blocksFromStationary(%v, %g) = %d, want %d", tc.pi, tc.rho, got, tc.want)
			}
		})
	}
}

// TestMappingTableProperties checks the two structural facts Algorithm 2
// relies on, across several parameterisations: mapping(k) never decreases in
// k, and never exceeds k.
func TestMappingTableProperties(t *testing.T) {
	for _, probs := range [][2]float64{{0.01, 0.09}, {0.05, 0.15}, {0.2, 0.1}} {
		for _, rho := range []float64{0, 0.01, 0.1} {
			table, err := NewMappingTable(48, probs[0], probs[1], rho)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0
			for k := 0; k <= table.MaxVMs(); k++ {
				kb := table.Blocks(k)
				if kb < prev {
					t.Errorf("pOn=%g pOff=%g rho=%g: mapping(%d)=%d < mapping(%d)=%d",
						probs[0], probs[1], rho, k, kb, k-1, prev)
				}
				if kb > k {
					t.Errorf("pOn=%g pOff=%g rho=%g: mapping(%d)=%d exceeds k",
						probs[0], probs[1], rho, k, kb)
				}
				prev = kb
			}
		}
	}
}

// TestNewMappingTableFromBlocks covers the assembly constructor used by the
// parallel builder.
func TestNewMappingTableFromBlocks(t *testing.T) {
	table, err := NewMappingTableFromBlocks([]int{0, 1, 1, 2}, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if table.MaxVMs() != 3 || table.Blocks(3) != 2 {
		t.Fatalf("assembled table wrong: d=%d blocks(3)=%d", table.MaxVMs(), table.Blocks(3))
	}
	if _, err := NewMappingTableFromBlocks([]int{0}, 0.01, 0.09, 0.01); err == nil {
		t.Error("accepted table without a k=1 entry")
	}
	if _, err := NewMappingTableFromBlocks([]int{1, 1}, 0.01, 0.09, 0.01); err == nil {
		t.Error("accepted blocks[0] != 0")
	}
}
