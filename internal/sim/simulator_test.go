package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/queuing"
	"repro/internal/workload"
)

// buildPlacement consolidates a random Fig. 5(a) fleet with the given
// strategy and returns the placement plus the fleet's mapping table.
func buildPlacement(t *testing.T, strategy core.Strategy, n int, seed int64) (*cloud.Placement, *queuing.MappingTable) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vms, err := workload.GenerateVMs(workload.DefaultFleetParams(workload.PatternEqual, n), rng)
	if err != nil {
		t.Fatal(err)
	}
	pms, err := workload.GeneratePMs(n, 80, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := strategy.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%s left %d VMs unplaced", strategy.Name(), len(res.Unplaced))
	}
	table, err := queuing.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	return res.Placement, table
}

func queueStrategy() core.QueuingFFD { return core.QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16} }

func TestNewValidation(t *testing.T) {
	placement, table := buildPlacement(t, queueStrategy(), 20, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := New(placement, table, Config{Intervals: 0, Rho: 0.01}, rng); err == nil {
		t.Error("bad config accepted")
	}
	empty, _ := cloud.NewPlacement([]cloud.PM{{ID: 0, Capacity: 10}})
	if _, err := New(empty, table, Config{Intervals: 10, Rho: 0.01}, rng); err == nil {
		t.Error("empty placement accepted")
	}
	if _, err := New(placement, nil, Config{Intervals: 10, Rho: 0.01, Policy: TargetReservationAware}, rng); err == nil {
		t.Error("reservation-aware policy without table accepted")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	placement, table := buildPlacement(t, core.FFDByRb{}, 40, 2)
	before := placement.NumUsedPMs()
	beforeVMs := placement.NumVMs()
	rng := rand.New(rand.NewSource(2))
	s, err := New(placement, table, Config{Intervals: 50, Rho: 0.01, EnableMigration: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if placement.NumUsedPMs() != before || placement.NumVMs() != beforeVMs {
		t.Error("simulator mutated the caller's placement")
	}
}

func TestReportShape(t *testing.T) {
	placement, table := buildPlacement(t, queueStrategy(), 30, 3)
	rng := rand.New(rand.NewSource(3))
	s, err := New(placement, table, Config{Intervals: 60, Rho: 0.01, EnableMigration: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intervals != 60 {
		t.Errorf("Intervals = %d", rep.Intervals)
	}
	if rep.MigrationsOverTime.Len() != 60 || rep.PMsOverTime.Len() != 60 {
		t.Error("time series have wrong length")
	}
	if rep.TotalMigrations != len(rep.Events) {
		t.Error("TotalMigrations inconsistent with Events")
	}
	sum := 0.0
	for i := 0; i < rep.MigrationsOverTime.Len(); i++ {
		_, v := rep.MigrationsOverTime.At(i)
		sum += v
	}
	if int(sum) != rep.TotalMigrations {
		t.Error("per-step migrations do not sum to total")
	}
	perVM := 0
	for _, n := range rep.PerVMMigrations {
		perVM += n
	}
	if perVM != rep.TotalMigrations {
		t.Error("per-VM migrations do not sum to total")
	}
	if rep.FinalPMs <= 0 {
		t.Error("FinalPMs should be positive")
	}
}

func TestQueuePlacementKeepsCVRBounded(t *testing.T) {
	// §V-C: without migration, a QUEUE placement's average CVR stays near ρ.
	placement, table := buildPlacement(t, queueStrategy(), 100, 4)
	rng := rand.New(rand.NewSource(4))
	s, err := New(placement, table, Config{Intervals: 4000, Rho: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMigrations != 0 {
		t.Error("migration disabled but events recorded")
	}
	mean := rep.CVR.Mean()
	if mean > 0.02 {
		t.Errorf("QUEUE mean CVR %v, want ≈ ≤ 0.01 (paper Fig. 6)", mean)
	}
}

func TestRBPlacementHasHighCVR(t *testing.T) {
	// §V-C Fig. 6: RB packing yields "disastrous" CVR without migration.
	placement, table := buildPlacement(t, core.FFDByRb{}, 100, 5)
	rng := rand.New(rand.NewSource(5))
	s, err := New(placement, table, Config{Intervals: 3000, Rho: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CVR.Mean() < 0.05 {
		t.Errorf("RB mean CVR %v — expected well above rho", rep.CVR.Mean())
	}
}

func TestRPPlacementNeverViolates(t *testing.T) {
	// "Since FFD by Rp never incurs capacity violations" (§V-C).
	placement, table := buildPlacement(t, core.FFDByRp{}, 60, 6)
	rng := rand.New(rand.NewSource(6))
	s, err := New(placement, table, Config{Intervals: 2000, Rho: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CVR.Max() != 0 {
		t.Errorf("RP max CVR %v, want exactly 0", rep.CVR.Max())
	}
}

func TestMigrationRelievesRB(t *testing.T) {
	// With migration on, RB incurs many migrations and grows its PM count
	// (Fig. 9/10): final PMs > initial PMs, migrations ≫ QUEUE's.
	placement, table := buildPlacement(t, core.FFDByRb{}, 80, 7)
	initial := placement.NumUsedPMs()
	rng := rand.New(rand.NewSource(7))
	s, err := New(placement, table, Config{Intervals: 100, Rho: 0.01, EnableMigration: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rbRep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rbRep.TotalMigrations == 0 {
		t.Error("RB run produced no migrations")
	}
	if rbRep.FinalPMs <= initial {
		t.Errorf("RB final PMs %d not above initial %d", rbRep.FinalPMs, initial)
	}

	qPlacement, qTable := buildPlacement(t, queueStrategy(), 80, 7)
	qrng := rand.New(rand.NewSource(7))
	qs, err := New(qPlacement, qTable, Config{Intervals: 100, Rho: 0.01, EnableMigration: true}, qrng)
	if err != nil {
		t.Fatal(err)
	}
	qRep, err := qs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if qRep.TotalMigrations >= rbRep.TotalMigrations {
		t.Errorf("QUEUE migrations %d not below RB %d", qRep.TotalMigrations, rbRep.TotalMigrations)
	}
}

func TestCycleMigrationDetection(t *testing.T) {
	// RB exhibits cycle migration; QUEUE does not (paper observation v/ii).
	placement, table := buildPlacement(t, core.FFDByRb{}, 200, 8)
	rng := rand.New(rand.NewSource(8))
	s, _ := New(placement, table, Config{Intervals: 100, Rho: 0.01, EnableMigration: true}, rng)
	rbRep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rbRep.CycleMigration() {
		t.Error("RB run should exhibit cycle migration")
	}

	qPlacement, qTable := buildPlacement(t, queueStrategy(), 200, 8)
	qrng := rand.New(rand.NewSource(8))
	qs, _ := New(qPlacement, qTable, Config{Intervals: 100, Rho: 0.01, EnableMigration: true}, qrng)
	qRep, err := qs.Run()
	if err != nil {
		t.Fatal(err)
	}
	if qRep.CycleMigration() {
		t.Errorf("QUEUE run flagged for cycle migration (%d total)", qRep.TotalMigrations)
	}
	if qRep.MaxPerVMMigrations() > rbRep.MaxPerVMMigrations() {
		t.Error("QUEUE VMs bounce more than RB VMs")
	}
}

func TestMigrationOverheadCharged(t *testing.T) {
	// With a huge overhead factor, each migration loads the source PM next
	// interval; the run must still complete and record events sanely.
	placement, table := buildPlacement(t, core.FFDByRb{}, 60, 9)
	rng := rand.New(rand.NewSource(9))
	s, err := New(placement, table, Config{Intervals: 80, Rho: 0.01, EnableMigration: true, MigrationOverhead: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalMigrations == 0 {
		t.Error("expected migrations under RB")
	}
	for _, ev := range rep.Events {
		if ev.FromPM == ev.ToPM {
			t.Error("migration to the same PM")
		}
	}
}

func TestRequestNoiseRuns(t *testing.T) {
	placement, table := buildPlacement(t, queueStrategy(), 40, 10)
	rng := rand.New(rand.NewSource(10))
	s, err := New(placement, table, Config{
		Intervals: 50, Rho: 0.01, EnableMigration: true,
		RequestNoise: true, UsersPerUnit: 40,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Intervals != 50 {
		t.Error("run incomplete")
	}
}

func TestReservationAwarePolicy(t *testing.T) {
	placement, table := buildPlacement(t, core.FFDByRb{}, 60, 11)
	rng := rand.New(rand.NewSource(11))
	s, err := New(placement, table, Config{
		Intervals: 80, Rho: 0.01, EnableMigration: true, Policy: TargetReservationAware,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	// RB packs by R_b alone, so spikes overflow its PMs and force moves.
	if rep.Intervals != 80 || rep.TotalMigrations == 0 {
		t.Errorf("reservation-aware run: %d intervals, %d migrations; want 80 and some",
			rep.Intervals, rep.TotalMigrations)
	}
}

// Under TargetReservationAware a migration target must pass Eq. (17) with the
// incoming VM counted: mapping(k+1) blocks for k hosted VMs plus the new one.
// PM 0 is half a block short of that (mapping(k) blocks would still fit) and
// must refuse; PM 1 fits it exactly and must admit.
func TestTargetAdmitsCountsTheIncomingVM(t *testing.T) {
	table, err := queuing.NewMappingTable(16, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	k := 1
	for table.Blocks(k+1) == table.Blocks(k) {
		k++
	}
	const rb, re = 10.0, 4.0
	incoming := cloud.VM{ID: 1000, POn: 0.01, POff: 0.09, Rb: rb, Re: re}
	fits := float64(k+1)*rb + re*float64(table.Blocks(k+1))
	placement, err := cloud.NewPlacement([]cloud.PM{{ID: 0, Capacity: fits - re/2}, {ID: 1, Capacity: fits}})
	if err != nil {
		t.Fatal(err)
	}
	for pm := range 2 {
		for i := range k {
			if err := placement.Assign(cloud.VM{ID: 10*pm + i, POn: 0.01, POff: 0.09, Rb: rb, Re: re}, pm); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := New(placement, table, Config{Intervals: 1, Rho: 0.01, Policy: TargetReservationAware},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if s.targetAdmits(0, 0, incoming, rb) {
		t.Errorf("k=%d: PM short of mapping(k+1)=%d blocks admitted the VM", k, table.Blocks(k+1))
	}
	if !s.targetAdmits(1, 0, incoming, rb) {
		t.Errorf("k=%d: PM fitting mapping(k+1)=%d blocks exactly refused the VM", k, table.Blocks(k+1))
	}
}

func TestEventsAreOrdered(t *testing.T) {
	placement, table := buildPlacement(t, core.FFDByRb{}, 60, 12)
	rng := rand.New(rand.NewSource(12))
	s, _ := New(placement, table, Config{Intervals: 100, Rho: 0.01, EnableMigration: true}, rng)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, ev := range rep.Events {
		if ev.Interval < prev {
			t.Fatal("events not in time order")
		}
		prev = ev.Interval
		if ev.Interval < 0 || ev.Interval >= 100 {
			t.Fatalf("event interval %d out of range", ev.Interval)
		}
	}
}

func TestCycleMigrationEmptyReport(t *testing.T) {
	r := &Report{MigrationsOverTime: metrics.NewTimeSeries("empty"), Intervals: 0}
	if r.CycleMigration() {
		t.Error("empty report should not flag cycle migration")
	}
	if r.MaxPerVMMigrations() != 0 {
		t.Error("empty report should have zero per-VM max")
	}
}

func TestFinalPMsMatchesSeriesLast(t *testing.T) {
	placement, table := buildPlacement(t, core.FFDByRb{}, 50, 13)
	rng := rand.New(rand.NewSource(13))
	s, _ := New(placement, table, Config{Intervals: 60, Rho: 0.01, EnableMigration: true}, rng)
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.PMsOverTime.Last()-float64(rep.FinalPMs)) > 1e-9 {
		t.Errorf("FinalPMs %d != last series value %v", rep.FinalPMs, rep.PMsOverTime.Last())
	}
}

func TestPerVMViolationAttribution(t *testing.T) {
	// RB packing: violated PMs degrade their tenants; the per-VM ratios
	// must be populated, bounded by [0,1], and the worst VM's ratio must
	// match the report's max.
	placement, table := buildPlacement(t, core.FFDByRb{}, 80, 14)
	rng := rand.New(rand.NewSource(14))
	s, err := New(placement, table, Config{Intervals: 500, Rho: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VMViolationRatio) != 80 {
		t.Fatalf("attributed %d VMs, want 80", len(rep.VMViolationRatio))
	}
	maxRatio := 0.0
	for id, v := range rep.VMViolationRatio {
		if v < 0 || v > 1 {
			t.Fatalf("VM %d ratio %v outside [0,1]", id, v)
		}
		if v > maxRatio {
			maxRatio = v
		}
	}
	worstID, worst := rep.WorstVMViolation()
	if worst != maxRatio || worstID < 0 {
		t.Errorf("WorstVMViolation = (%d, %v), max is %v", worstID, worst, maxRatio)
	}
	// With RB's high CVR, some tenant must be suffering.
	if worst < 0.05 {
		t.Errorf("worst per-VM violation %v implausibly low for RB", worst)
	}
}

func TestPerVMViolationZeroForRP(t *testing.T) {
	placement, table := buildPlacement(t, core.FFDByRp{}, 40, 15)
	rng := rand.New(rand.NewSource(15))
	s, err := New(placement, table, Config{Intervals: 300, Rho: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range rep.VMViolationRatio {
		if v != 0 {
			t.Errorf("VM %d has violation ratio %v under peak provisioning", id, v)
		}
	}
	if _, worst := rep.WorstVMViolation(); worst != 0 {
		t.Error("worst VM violation should be 0 under RP")
	}
}

func TestWorstVMViolationEmpty(t *testing.T) {
	r := &Report{VMViolationRatio: map[int]float64{}}
	if id, v := r.WorstVMViolation(); id != -1 || v != 0 {
		t.Errorf("empty report worst = (%d, %v)", id, v)
	}
}
