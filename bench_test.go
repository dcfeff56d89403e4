// Benchmarks, one per paper artifact (§V tables and figures) plus ablations
// of the design choices called out in DESIGN.md. Each BenchmarkFigN target
// exercises exactly the code path that regenerates that figure; custom
// metrics (pms_used, migrations, cvr) report the figure's headline quantity
// alongside the timing.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/linalg"
	"repro/internal/markov"
	"repro/internal/queuing"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	benchPOn  = 0.01
	benchPOff = 0.09
	benchRho  = 0.01
	benchD    = 16
)

func benchFleet(b *testing.B, pattern workload.Pattern, n int, seed int64) ([]repro.VM, []repro.PM) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(pattern, n), rng)
	if err != nil {
		b.Fatal(err)
	}
	pms, err := workload.GeneratePMs(n, 80, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	return vms, pms
}

// BenchmarkFig1TraceGen measures the ON-OFF demand-trace generator behind
// Figure 1 (one 1000-interval trace per iteration).
func BenchmarkFig1TraceGen(b *testing.B) {
	vm := repro.VM{ID: 0, POn: benchPOn, POff: benchPOff, Rb: 10, Re: 10}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.GenerateDemandTrace(vm, 1000, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTab1FleetBuild measures constructing a Table I web-server fleet.
func BenchmarkTab1FleetBuild(b *testing.B) {
	entries := workload.TableI()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for id, e := range entries {
			vm := workload.VMFromEntry(id, e, benchPOn, benchPOff)
			if vm.Rp() <= 0 {
				b.Fatal("bad entry")
			}
		}
	}
}

// BenchmarkFig5Packing regenerates the Figure 5 packing comparison: each
// sub-benchmark packs a 200-VM fleet of one pattern with one strategy and
// reports the PM count it would plot.
func BenchmarkFig5Packing(b *testing.B) {
	for _, pattern := range workload.Patterns() {
		strategies := []repro.Strategy{
			repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD},
			repro.FFDByRp{},
			repro.FFDByRb{},
		}
		for _, s := range strategies {
			s := s
			vms, pms := benchFleet(b, pattern, 200, 5)
			b.Run(fmt.Sprintf("%s/%s", pattern, s.Name()), func(b *testing.B) {
				b.ReportAllocs()
				var used int
				for i := 0; i < b.N; i++ {
					res, err := s.Place(vms, pms)
					if err != nil {
						b.Fatal(err)
					}
					used = res.UsedPMs()
				}
				b.ReportMetric(float64(used), "pms_used")
			})
		}
	}
}

// BenchmarkFig6CVRSimulation regenerates the Figure 6 measurement: a
// 500-interval no-migration run of a QUEUE placement, reporting mean CVR.
func BenchmarkFig6CVRSimulation(b *testing.B) {
	vms, pms := benchFleet(b, workload.PatternEqual, 100, 6)
	s := repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD}
	res, err := s.Place(vms, pms)
	if err != nil {
		b.Fatal(err)
	}
	table, err := s.Table(vms)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cvr float64
	for i := 0; i < b.N; i++ {
		simulator, err := sim.New(res.Placement, table, sim.Config{Intervals: 500, Rho: benchRho},
			rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := simulator.Run()
		if err != nil {
			b.Fatal(err)
		}
		cvr = rep.CVR.Mean()
	}
	b.ReportMetric(cvr, "mean_cvr")
}

// BenchmarkFig7MapCal measures Algorithm 1 alone across k — the O(k³) core
// of the Figure 7 cost curve.
func BenchmarkFig7MapCal(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.MapCal(k, benchPOn, benchPOff, benchRho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7QueuingFFD measures the complete Algorithm 2 across the
// Figure 7 (d, n) grid.
func BenchmarkFig7QueuingFFD(b *testing.B) {
	for _, d := range []int{8, 16, 32} {
		for _, n := range []int{100, 400, 1600} {
			vms, pms := benchFleet(b, workload.PatternEqual, n, int64(d*10000+n))
			s := repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: d}
			b.Run(fmt.Sprintf("d=%d/n=%d", d, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Place(vms, pms); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8RequestGen measures the §V-D request generator behind
// Figure 8, in both the exact renewal and Gaussian-approximation forms.
func BenchmarkFig8RequestGen(b *testing.B) {
	tt := workload.PaperThinkTime()
	rng := rand.New(rand.NewSource(8))
	b.Run("exact/400users", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.RequestCountExact(400, 30, tt, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("approx/400users", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := workload.RequestCount(400, 30, tt, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig9Simulation regenerates one Figure 9 trial per iteration: a
// 100σ live-migration run for each strategy, reporting the migration count
// and final PM count the figure plots.
func BenchmarkFig9Simulation(b *testing.B) {
	table, err := repro.NewMappingTable(benchD, benchPOn, benchPOff, benchRho)
	if err != nil {
		b.Fatal(err)
	}
	strategies := []repro.Strategy{
		repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD},
		repro.FFDByRb{},
		repro.RBEX{Delta: 0.3},
	}
	for _, s := range strategies {
		s := s
		b.Run(s.Name(), func(b *testing.B) {
			vms, pms := benchFleet(b, workload.PatternEqual, 100, 9)
			res, err := s.Place(vms, pms)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var migrations, finalPMs int
			for i := 0; i < b.N; i++ {
				simulator, err := sim.New(res.Placement, table, sim.Config{
					Intervals: 100, Rho: benchRho, EnableMigration: true,
				}, rand.New(rand.NewSource(int64(i))))
				if err != nil {
					b.Fatal(err)
				}
				rep, err := simulator.Run()
				if err != nil {
					b.Fatal(err)
				}
				migrations, finalPMs = rep.TotalMigrations, rep.FinalPMs
			}
			b.ReportMetric(float64(migrations), "migrations")
			b.ReportMetric(float64(finalPMs), "final_pms")
		})
	}
}

// BenchmarkFig10EventBucketing measures extracting the Figure 10 time-order
// series from a finished run.
func BenchmarkFig10EventBucketing(b *testing.B) {
	table, _ := repro.NewMappingTable(benchD, benchPOn, benchPOff, benchRho)
	vms, pms := benchFleet(b, workload.PatternEqual, 100, 10)
	res, err := repro.FFDByRb{}.Place(vms, pms)
	if err != nil {
		b.Fatal(err)
	}
	simulator, err := sim.New(res.Placement, table, sim.Config{
		Intervals: 100, Rho: benchRho, EnableMigration: true,
	}, rand.New(rand.NewSource(10)))
	if err != nil {
		b.Fatal(err)
	}
	rep, err := simulator.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := rep.MigrationsOverTime.Buckets(10); len(got) == 0 {
			b.Fatal("no buckets")
		}
	}
}

// BenchmarkAblationStationarySolver compares the three ways of computing the
// limiting distribution Π (Eq. 13): the closed-form Binomial(k, q) fast path,
// Gaussian elimination on the balance equations, and literal power iteration.
// The matrix-backed entries exclude the (cached) matrix build, so they show
// pure solve cost; the fast path has no matrix to build at all.
func BenchmarkAblationStationarySolver(b *testing.B) {
	bb, err := markov.NewBusyBlocks(16, benchPOn, benchPOff)
	if err != nil {
		b.Fatal(err)
	}
	p := bb.TransitionMatrix()
	b.Run("closedform", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(bb.Stationary()) == 0 {
				b.Fatal("empty stationary distribution")
			}
		}
	})
	b.Run("gaussian", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := linalg.StationaryDistribution(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("power", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := linalg.PowerIteration(p, nil, 1e-12, 1000000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationClusteringAlgorithms isolates the clustering step itself.
func BenchmarkAblationClusteringAlgorithms(b *testing.B) {
	vms, _ := benchFleet(b, workload.PatternEqual, 1000, 13)
	var s cluster.Sorter
	b.Run("rangebuckets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.RangeBuckets(vms, 32); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMappingTable measures the full mapping-table precomputation
// (Algorithm 2 lines 1–6) for the paper's d = 16 and larger.
func BenchmarkMappingTable(b *testing.B) {
	for _, d := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := queuing.NewMappingTable(d, benchPOn, benchPOff, benchRho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHeteroAdmission compares the mapping-table admission with
// the exact Poisson-binomial admission on the same uniform fleet.
func BenchmarkAblationHeteroAdmission(b *testing.B) {
	vms, pms := benchFleet(b, workload.PatternEqual, 200, 14)
	for _, variant := range []struct {
		name string
		s    repro.QueuingFFD
	}{
		{"table", repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD}},
		{"exact", repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD, ExactHetero: true}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := variant.s.Place(vms, pms); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControllerRun measures the reconsolidation control loop end to
// end (reactive + periodic re-pack, 100 intervals).
func BenchmarkControllerRun(b *testing.B) {
	table, _ := repro.NewMappingTable(benchD, benchPOn, benchPOff, benchRho)
	vms, pms := benchFleet(b, workload.PatternEqual, 100, 15)
	res, err := repro.FFDByRb{}.Place(vms, pms)
	if err != nil {
		b.Fatal(err)
	}
	strategy := repro.QueuingFFD{Rho: benchRho, MaxVMsPerPM: benchD}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl, err := sim.NewController(res.Placement, table,
			sim.Config{Intervals: 100, Rho: benchRho, EnableMigration: true},
			strategy, 25, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrl.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceReplay measures trace-driven stepping vs model stepping.
func BenchmarkTraceReplay(b *testing.B) {
	vms, _ := benchFleet(b, workload.PatternEqual, 100, 16)
	rng := rand.New(rand.NewSource(16))
	traces := make(map[int][]markov.State, len(vms))
	for _, vm := range vms {
		chain, err := markov.NewOnOff(vm.POn, vm.POff)
		if err != nil {
			b.Fatal(err)
		}
		traces[vm.ID] = chain.Trace(markov.Off, 1000, rng)
	}
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replay, err := workload.NewTraceReplay(traces, true)
			if err != nil {
				b.Fatal(err)
			}
			for t := 0; t < 1000; t++ {
				replay.Step(nil)
			}
		}
	})
	b.Run("model", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fleet, err := workload.NewFleetStates(vms, rng)
			if err != nil {
				b.Fatal(err)
			}
			for t := 0; t < 1000; t++ {
				fleet.Step(rng)
			}
		}
	})
}

// BenchmarkMapCalHetero measures the Poisson-binomial DP across fleet sizes.
func BenchmarkMapCalHetero(b *testing.B) {
	for _, k := range []int{8, 16, 64} {
		pOns := make([]float64, k)
		pOffs := make([]float64, k)
		for i := range pOns {
			pOns[i] = 0.005 + 0.02*float64(i%4)
			pOffs[i] = 0.05 + 0.05*float64(i%3)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.MapCalHetero(pOns, pOffs, benchRho); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
