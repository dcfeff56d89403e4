package repro_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro"
	"repro/internal/markov"
)

// TestEndToEndPipeline drives the whole system through the public API:
// generate a fleet, consolidate with every strategy, audit the constraints,
// simulate with live migration, and compare energy-relevant outcomes.
func TestEndToEndPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	vms, err := repro.GenerateVMs(repro.DefaultFleetParams(repro.PatternEqual, 150), rng)
	if err != nil {
		t.Fatal(err)
	}
	pms, err := repro.GeneratePMs(150, 80, 100, rng)
	if err != nil {
		t.Fatal(err)
	}

	queue := repro.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
	qRes, err := queue.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	table, err := queue.Table(vms)
	if err != nil {
		t.Fatal(err)
	}
	if v := repro.CheckReserved(qRes.Placement, table); v != nil {
		t.Fatalf("Eq. (17) violated: %v", v)
	}

	rpRes, err := repro.FFDByRp{}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	rbRes, err := repro.FFDByRb{}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if v := repro.CheckPeak(rpRes.Placement); v != nil {
		t.Fatalf("peak constraint violated: %v", v)
	}
	if v := repro.CheckNormal(rbRes.Placement); v != nil {
		t.Fatalf("normal constraint violated: %v", v)
	}
	if !(rbRes.UsedPMs() <= qRes.UsedPMs() && qRes.UsedPMs() <= rpRes.UsedPMs()) {
		t.Fatalf("ordering broken: RB %d, QUEUE %d, RP %d",
			rbRes.UsedPMs(), qRes.UsedPMs(), rpRes.UsedPMs())
	}

	// Simulate the QUEUE placement: CVR must stay near rho, migrations near
	// zero.
	simulator, err := repro.NewSimulator(qRes.Placement, table, repro.SimConfig{
		Intervals:       200,
		Rho:             0.01,
		EnableMigration: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simulator.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CVR.Mean() > 0.03 {
		t.Errorf("QUEUE simulated mean CVR %v too high", rep.CVR.Mean())
	}
	if rep.CycleMigration() {
		t.Error("QUEUE flagged for cycle migration")
	}
}

func TestPublicMapCalMatchesTable(t *testing.T) {
	table, err := repro.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 16; k++ {
		res, err := repro.MapCal(k, 0.01, 0.09, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if table.Blocks(k) != res.K {
			t.Errorf("table(%d) = %d, MapCal = %d", k, table.Blocks(k), res.K)
		}
		// At k=2 the tail is q² = ρ exactly, one ulp above ρ in floats: the
		// acceptance test allows a relative slack of 1e-12.
		if res.K < k && res.CVR > 0.01*(1+1e-12) {
			t.Errorf("k=%d: CVR %v above rho", k, res.CVR)
		}
	}
}

func TestPublicOnOff(t *testing.T) {
	chain, err := repro.NewOnOff(0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(chain.StationaryOn()-0.1) > 1e-12 {
		t.Errorf("StationaryOn = %v", chain.StationaryOn())
	}
	if _, err := repro.NewOnOff(0, 0.5); err == nil {
		t.Error("invalid chain accepted")
	}
}

func TestPublicOnlineFlow(t *testing.T) {
	pms := []repro.PM{{ID: 0, Capacity: 100}, {ID: 1, Capacity: 100}}
	online, err := repro.NewOnline(repro.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}, pms, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	vm := repro.VM{ID: 1, POn: 0.01, POff: 0.09, Rb: 10, Re: 5}
	pmID, err := online.Arrive(vm)
	if err != nil {
		t.Fatal(err)
	}
	if pmID != 0 {
		t.Errorf("arrived on PM %d, want 0", pmID)
	}
	if err := online.Depart(1); err != nil {
		t.Fatal(err)
	}
	if online.Placement().NumVMs() != 0 {
		t.Error("departure did not remove VM")
	}
}

func TestPublicExperimentSurface(t *testing.T) {
	if len(repro.ListExperiments()) != 15 {
		t.Errorf("expected 15 experiments, got %d", len(repro.ListExperiments()))
	}
	var buf bytes.Buffer
	opt := repro.ExperimentOptions{Out: &buf, Seed: 1, TraceLen: 50}
	if err := repro.RunExperiment("tab1", opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("tab1 output missing header")
	}
}

func TestPublicFleetRoundTrip(t *testing.T) {
	spec := `{
	  "vms": [{"ID":0,"POn":0.01,"POff":0.09,"Rb":10,"Re":5}],
	  "pms": [{"ID":0,"Capacity":100}],
	  "rho": 0.01,
	  "max_vms_per_pm": 16
	}`
	fleet, err := repro.ReadFleet(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.VMs) != 1 || fleet.VMs[0].Rb != 10 {
		t.Errorf("fleet decoded wrong: %+v", fleet)
	}
}

func TestPublicMultiDim(t *testing.T) {
	vms := []repro.MultiVM{
		{ID: 0, POn: 0.01, POff: 0.09,
			Rb: repro.ResourceVec{10, 4}, Re: repro.ResourceVec{5, 2}},
	}
	pms := []repro.MultiPM{{ID: 0, Capacity: repro.ResourceVec{100, 50}}}
	res, err := repro.MultiDimFF{Rho: 0.01, MaxVMsPerPM: 16}.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedPMs != 1 || res.Assignments[0] != 0 {
		t.Errorf("multidim placement wrong: %+v", res)
	}
}

func TestPublicAnalysisSurface(t *testing.T) {
	// Transient queries.
	tr, err := repro.NewTransient(8, 0.01, 0.09)
	if err != nil {
		t.Fatal(err)
	}
	if mix, err := tr.MixingTime(0.01, 100000); err != nil || mix < 1 {
		t.Errorf("MixingTime = %d, %v", mix, err)
	}
	// Sweeps.
	points, err := repro.SweepRho(8, 0.01, 0.09, []float64{0.01, 0.05})
	if err != nil || len(points) != 2 {
		t.Fatalf("SweepRho: %v, %v", points, err)
	}
	kPoints, err := repro.SweepK([]int{2, 8}, 0.01, 0.09, 0.01)
	if err != nil || len(kPoints) != 2 {
		t.Fatalf("SweepK: %v, %v", kPoints, err)
	}
	// Exact hetero.
	hres, err := repro.MapCalHetero([]float64{0.01, 0.2}, []float64{0.09, 0.2}, 0.01)
	if err != nil || hres.Sources != 2 {
		t.Fatalf("MapCalHetero: %+v, %v", hres, err)
	}
}

func TestPublicFittingSurface(t *testing.T) {
	demand := []float64{10, 10, 18, 18, 10, 18, 10, 10}
	levels, est, err := repro.FitVM(demand)
	if err != nil {
		t.Fatal(err)
	}
	if levels.Rb >= levels.Rp {
		t.Errorf("levels (%v, %v)", levels.Rb, levels.Rp)
	}
	if est.POn <= 0 || est.POff <= 0 {
		t.Errorf("estimate %+v", est)
	}
	states := []markov.State{markov.Off, markov.On, markov.Off, markov.On}
	if _, err := repro.EstimateOnOff(states); err != nil {
		t.Fatal(err)
	}
}

func TestPublicSimulationSurface(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	vms, err := repro.GenerateVMs(repro.DefaultFleetParams(repro.PatternEqual, 40), rng)
	if err != nil {
		t.Fatal(err)
	}
	pms, err := repro.GeneratePMs(40, 80, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	strategy := repro.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
	res, err := strategy.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	table, err := repro.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	// Trace-driven simulation.
	traces := make(map[int][]markov.State, len(vms))
	for _, vm := range vms {
		chain, err := repro.NewOnOff(vm.POn, vm.POff)
		if err != nil {
			t.Fatal(err)
		}
		traces[vm.ID] = chain.Trace(markov.Off, 101, rng)
	}
	replay, err := repro.NewTraceReplay(traces, false)
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := repro.NewSimulatorWithSource(res.Placement, table, repro.SimConfig{
		Intervals: 100, Rho: 0.01,
	}, replay, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim2.Run()
	if err != nil {
		t.Fatal(err)
	}

	// Energy accounting of the run.
	model := repro.DefaultEnergyModel()
	energy, err := model.Energy(rep, 0.7)
	if err != nil || energy.TotalJoules <= 0 {
		t.Fatalf("energy: %+v, %v", energy, err)
	}

	// Churn simulation.
	churn, err := repro.NewChurnSimulator(res.Placement, table, repro.ChurnConfig{
		Sim:          repro.SimConfig{Intervals: 30, Rho: 0.01},
		ArrivalProb:  0.3,
		MeanLifetime: 100,
		NewVM: func(arrival int, r *rand.Rand) repro.VM {
			return repro.VM{ID: 50000 + arrival, POn: 0.01, POff: 0.09, Rb: 10, Re: 5}
		},
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := churn.Run(); err != nil {
		t.Fatal(err)
	}

	// Controller loop.
	ctrl, err := repro.NewController(res.Placement, table, repro.SimConfig{
		Intervals: 40, Rho: 0.01, EnableMigration: true,
	}, strategy, 20, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	crep, err := ctrl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if crep.ReconsolidationRuns != 1 {
		t.Errorf("controller ran recon %d times, want 1", crep.ReconsolidationRuns)
	}

	// Reconsolidation plan + hetero audit.
	plan, _, err := strategy.Reconsolidate(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	_ = plan
	if _, err := repro.HeteroViolations(res.Placement, 0.01); err != nil {
		t.Fatal(err)
	}
}

func TestPublicRunAllExperiments(t *testing.T) {
	var buf bytes.Buffer
	opt := repro.ExperimentOptions{
		Out: &buf, Seed: 5, VMCounts: []int{20}, Trials: 2,
		Intervals: 30, SimIntervals: 100, TraceLen: 40,
	}
	if err := repro.RunAllExperiments(opt); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}
