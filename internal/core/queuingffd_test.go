package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
	"repro/internal/queuing"
)

func paperQueue() QueuingFFD {
	return QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16}
}

func TestQueuingFFDValidation(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 5, 5)}
	pms := mkPool(1, 100)
	if _, err := (QueuingFFD{Rho: 0.01}).Place(vms, pms); err == nil {
		t.Error("missing MaxVMsPerPM accepted")
	}
	if _, err := (QueuingFFD{Rho: -1, MaxVMsPerPM: 4}).Place(vms, pms); err == nil {
		t.Error("negative rho accepted")
	}
	if _, err := paperQueue().Place(nil, pms); err == nil {
		t.Error("empty fleet accepted")
	}
}

func TestQueuingFFDRespectsEq17(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vms, pms := randomFleet(rng, 100)
	s := paperQueue()
	res, err := s.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("unplaced VMs: %d", len(res.Unplaced))
	}
	table, err := s.Table(vms)
	if err != nil {
		t.Fatal(err)
	}
	if v := cloud.CheckReserved(res.Placement, table); v != nil {
		t.Errorf("Eq. (17) violated: %v", v)
	}
}

func TestQueuingFFDRespectsDCap(t *testing.T) {
	vms := make([]cloud.VM, 20)
	for i := range vms {
		vms[i] = mkVM(i, 0.5, 0.1) // tiny VMs, capacity never binds
	}
	s := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 4}
	res, err := s.Place(vms, mkPool(20, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, pmID := range res.Placement.UsedPMs() {
		if res.Placement.CountOn(pmID) > 4 {
			t.Errorf("PM %d hosts %d VMs, cap is 4", pmID, res.Placement.CountOn(pmID))
		}
	}
	if res.UsedPMs() != 5 {
		t.Errorf("20 VMs / cap 4 should use 5 PMs, used %d", res.UsedPMs())
	}
}

func TestQueuingFFDBetweenRBAndRP(t *testing.T) {
	// The headline property of Fig. 5: RB ≤ QUEUE ≤ RP in PMs used.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		vms, pms := randomFleet(rng, 50+rng.Intn(150))
		queue, err := paperQueue().Place(vms, pms)
		if err != nil {
			t.Fatal(err)
		}
		rp, _ := FFDByRp{}.Place(vms, pms)
		rb, _ := FFDByRb{}.Place(vms, pms)
		if queue.UsedPMs() > rp.UsedPMs() {
			t.Errorf("trial %d: QUEUE %d > RP %d", trial, queue.UsedPMs(), rp.UsedPMs())
		}
		if queue.UsedPMs() < rb.UsedPMs() {
			t.Errorf("trial %d: QUEUE %d < RB %d", trial, queue.UsedPMs(), rb.UsedPMs())
		}
	}
}

func TestQueuingFFDSavesOverRP(t *testing.T) {
	// With the paper's parameters and a reasonably large fleet, QUEUE must
	// realise a material saving (Fig. 5 reports 18–45%).
	rng := rand.New(rand.NewSource(4))
	vms, pms := randomFleet(rng, 200)
	queue, err := paperQueue().Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := FFDByRp{}.Place(vms, pms)
	saving := 1 - float64(queue.UsedPMs())/float64(rp.UsedPMs())
	if saving < 0.10 {
		t.Errorf("QUEUE saving over RP only %.1f%% (QUEUE %d, RP %d)", saving*100, queue.UsedPMs(), rp.UsedPMs())
	}
}

func TestQueuingFFDTightRhoApproachesRP(t *testing.T) {
	// As ρ → 0, no blocks can be shed, so every VM keeps its own block;
	// QUEUE's footprint per PM then matches peak provisioning (with the
	// uniform max-Re block the reservation is even more conservative).
	vms := make([]cloud.VM, 12)
	for i := range vms {
		vms[i] = mkVM(i, 10, 5)
	}
	pms := mkPool(12, 100)
	tight := QueuingFFD{Rho: 0, MaxVMsPerPM: 16}
	res, err := tight.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	rp, _ := FFDByRp{}.Place(vms, pms)
	if res.UsedPMs() < rp.UsedPMs() {
		t.Errorf("ρ=0 QUEUE %d < RP %d: shed blocks it must not shed", res.UsedPMs(), rp.UsedPMs())
	}
	table, _ := tight.Table(vms)
	for k := 1; k <= 16; k++ {
		if table.Blocks(k) != k {
			t.Errorf("ρ=0 mapping(%d) = %d, want %d", k, table.Blocks(k), k)
		}
	}
}

func TestQueuingFFDLaxRhoApproachesRB(t *testing.T) {
	// With ρ near 1, mapping(k) = 0 for all k: QUEUE degenerates to RB
	// (same constraint, different ordering), so PM counts should match
	// closely.
	rng := rand.New(rand.NewSource(5))
	vms, pms := randomFleet(rng, 120)
	lax := QueuingFFD{Rho: 0.999, MaxVMsPerPM: 16}
	res, err := lax.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	table, _ := lax.Table(vms)
	for k := 1; k <= 16; k++ {
		if table.Blocks(k) != 0 {
			t.Fatalf("ρ=0.999 mapping(%d) = %d, want 0", k, table.Blocks(k))
		}
	}
	rb, _ := FFDByRb{}.Place(vms, pms)
	if res.UsedPMs() < rb.UsedPMs() {
		t.Errorf("QUEUE %d < RB %d with zero reservation", res.UsedPMs(), rb.UsedPMs())
	}
}

func TestQueuingFFDNumClustersOverride(t *testing.T) {
	// The cluster count is a function of the fleet size alone.
	if got := numClusters(5); got != 1 {
		t.Errorf("numClusters(5) = %d, want 1", got)
	}
	if got := numClusters(80); got != 10 {
		t.Errorf("numClusters(80) = %d, want 10", got)
	}
}

// referenceOrder is Algorithm 2 lines 7–9 written the straightforward way —
// equal-width R_e buckets grown by append, stable reflective sorts — against
// which the allocation-free cluster.Sorter behind QueuingFFD.Order is pinned.
func referenceOrder(vms []cloud.VM, numBuckets int) []cloud.VM {
	minRe, maxRe := vms[0].Re, vms[0].Re
	for _, v := range vms {
		minRe, maxRe = math.Min(minRe, v.Re), math.Max(maxRe, v.Re)
	}
	buckets := [][]cloud.VM{append([]cloud.VM(nil), vms...)}
	if numBuckets > 1 && maxRe != minRe {
		width := (maxRe - minRe) / float64(numBuckets)
		all := make([][]cloud.VM, numBuckets)
		for _, v := range vms {
			idx := int((v.Re - minRe) / width)
			if idx >= numBuckets {
				idx = numBuckets - 1
			}
			all[idx] = append(all[idx], v)
		}
		buckets = buckets[:0]
		for _, b := range all {
			if len(b) > 0 {
				buckets = append(buckets, b)
			}
		}
	}
	bucketMaxRe := func(b []cloud.VM) float64 {
		m := 0.0
		for _, v := range b {
			m = math.Max(m, v.Re)
		}
		return m
	}
	bucketMinID := func(b []cloud.VM) int {
		m := b[0].ID
		for _, v := range b {
			m = min(m, v.ID)
		}
		return m
	}
	sort.SliceStable(buckets, func(i, j int) bool {
		if mi, mj := bucketMaxRe(buckets[i]), bucketMaxRe(buckets[j]); mi != mj {
			return mi > mj
		}
		return bucketMinID(buckets[i]) < bucketMinID(buckets[j])
	})
	var flat []cloud.VM
	for _, b := range buckets {
		sort.SliceStable(b, func(i, j int) bool {
			if b[i].Rb != b[j].Rb {
				return b[i].Rb > b[j].Rb
			}
			return b[i].ID < b[j].ID
		})
		flat = append(flat, b...)
	}
	return flat
}

// TestOrderMatchesReference: the no-growth, non-stable-sort Order returns
// exactly the reference sequence, on random fleets, on fleets of few distinct
// R_e / R_b values (long runs of ties, so only the id tie-break orders them),
// on all-equal R_e (the single-cluster shortcut) and on shuffled,
// non-contiguous ids — and leaves its input untouched. It runs at the default
// cluster count; TestSorterMatchesOracle covers 1, 3 and more than n.
func TestOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	levels := []float64{2, 5, 5.5, 11, 20}
	fleets := map[string]func(n int) []cloud.VM{
		"random": func(n int) []cloud.VM { vms, _ := randomFleet(rng, n); return vms },
		"few levels": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = mkVM(i, levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))])
			}
			return vms
		},
		"equal Re": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = mkVM(i, levels[rng.Intn(len(levels))], 7)
			}
			return vms
		},
		"shuffled sparse ids": func(n int) []cloud.VM {
			vms, _ := randomFleet(rng, n)
			for i, at := range rng.Perm(n) {
				vms[i].ID = 1000 + 37*at
			}
			return vms
		},
	}
	for name, gen := range fleets {
		for _, n := range []int{1, 2, 7, 8, 9, 64, 500} {
			vms := gen(n)
			input := append([]cloud.VM(nil), vms...)
			got, err := paperQueue().Order(vms)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceOrder(input, numClusters(n)); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: Order diverges from the reference\n got %v\nwant %v", name, n, got, want)
			}
			if !slices.Equal(vms, input) {
				t.Fatalf("%s n=%d: Order mutated its input", name, n)
			}
		}
	}
}

func TestBuildRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vms, pms := randomFleet(rng, 30)
	s := paperQueue()
	res, err := s.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	table, _ := s.Table(vms)
	rec := s.BuildRecord(res, table)
	if rec.Strategy != "QUEUE" || rec.UsedPMs != res.UsedPMs() {
		t.Errorf("record header wrong: %+v", rec)
	}
	totalVMs := 0
	for _, h := range rec.Hosts {
		totalVMs += len(h.VMIDs)
		if h.Footprint > h.Capacity+1e-9 {
			t.Errorf("PM %d footprint %v > capacity %v in record", h.PMID, h.Footprint, h.Capacity)
		}
		if h.Footprint != h.SumRb+h.Reservation {
			t.Errorf("PM %d footprint accounting inconsistent", h.PMID)
		}
	}
	if totalVMs != 30 {
		t.Errorf("record covers %d VMs, want 30", totalVMs)
	}
}

func TestBuildRecordReportsUnplaced(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 500, 10)}
	s := paperQueue()
	res, err := s.Place(vms, mkPool(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	table, _ := s.Table(vms)
	rec := s.BuildRecord(res, table)
	if len(rec.Unplaced) != 1 || rec.Unplaced[0] != 1 {
		t.Errorf("unplaced not recorded: %v", rec.Unplaced)
	}
}

// Property: QUEUE always satisfies Eq. (17) and lands between RB and RP.
func TestPropQueueInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vms, pms := randomFleet(rng, 20+rng.Intn(100))
		s := paperQueue()
		res, err := s.Place(vms, pms)
		if err != nil || len(res.Unplaced) > 0 {
			return false
		}
		table, err := s.Table(vms)
		if err != nil {
			return false
		}
		if cloud.CheckReserved(res.Placement, table) != nil {
			return false
		}
		rp, _ := FFDByRp{}.Place(vms, pms)
		rb, _ := FFDByRb{}.Place(vms, pms)
		return res.UsedPMs() <= rp.UsedPMs() && res.UsedPMs() >= rb.UsedPMs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the d cap is honoured for random d.
func TestPropQueueHonoursCap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(10)
		vms, pms := randomFleet(rng, 40)
		s := QueuingFFD{Rho: 0.01, MaxVMsPerPM: d}
		res, err := s.Place(vms, pms)
		if err != nil {
			return false
		}
		for _, pmID := range res.Placement.UsedPMs() {
			if res.Placement.CountOn(pmID) > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTableMatchesMapCalDirectly(t *testing.T) {
	vms := []cloud.VM{mkVM(1, 5, 5), mkVM(2, 5, 5)}
	s := paperQueue()
	table, err := s.Table(vms)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 16; k++ {
		direct, err := queuing.MapCal(k, 0.01, 0.09, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if table.Blocks(k) != direct.K {
			t.Errorf("table(%d) = %d, MapCal = %d", k, table.Blocks(k), direct.K)
		}
	}
}

func TestQueuingFFDExactHeteroUniformEqualsTable(t *testing.T) {
	// On a uniform fleet, exact-hetero admission must produce the identical
	// placement to the mapping-table path.
	rng := rand.New(rand.NewSource(81))
	vms, pms := randomFleet(rng, 80)
	tablePath, err := paperQueue().Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	exact := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16, ExactHetero: true}
	exactPath, err := exact.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if tablePath.UsedPMs() != exactPath.UsedPMs() {
		t.Errorf("uniform fleet: table %d PMs vs exact %d", tablePath.UsedPMs(), exactPath.UsedPMs())
	}
	for _, vm := range vms {
		a, _ := tablePath.Placement.PMOf(vm.ID)
		b, _ := exactPath.Placement.PMOf(vm.ID)
		if a != b {
			t.Fatalf("VM %d placed differently: %d vs %d", vm.ID, a, b)
		}
	}
}

func TestQueuingFFDExactHeteroMixedFleet(t *testing.T) {
	// Mixed calm/bursty fleet: exact admission keeps the exact-model audit
	// clean, which mean rounding cannot promise.
	rng := rand.New(rand.NewSource(82))
	vms := make([]cloud.VM, 60)
	for i := range vms {
		if i%4 == 0 { // every fourth VM is bursty
			vms[i] = cloud.VM{ID: i, POn: 0.2, POff: 0.2, Rb: 2 + 8*rng.Float64(), Re: 2 + 8*rng.Float64()}
		} else {
			vms[i] = cloud.VM{ID: i, POn: 0.01, POff: 0.19, Rb: 2 + 18*rng.Float64(), Re: 2 + 18*rng.Float64()}
		}
	}
	pms := mkPool(60, 100)
	exact := QueuingFFD{Rho: 0.01, MaxVMsPerPM: 16, ExactHetero: true}
	res, err := exact.Place(vms, pms)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unplaced) != 0 {
		t.Fatalf("%d unplaced", len(res.Unplaced))
	}
	violations, err := HeteroViolations(res.Placement, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if violations != nil {
		t.Errorf("exact-hetero placement violates its own audit: %v", violations)
	}
}

func TestHeteroViolationsDetectsOverpack(t *testing.T) {
	// Hand-build an overpacked PM: bursty VMs whose exact reservation
	// cannot fit.
	pms := mkPool(1, 50)
	p, err := cloud.NewPlacement(pms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		vm := cloud.VM{ID: i, POn: 0.4, POff: 0.1, Rb: 10, Re: 10}
		if err := p.Assign(vm, 0); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := HeteroViolations(p, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 1 {
		t.Fatalf("expected one violation, got %v", violations)
	}
	if violations[0].PMID != 0 || violations[0].Footprint <= violations[0].Capacity {
		t.Errorf("violation accounting wrong: %+v", violations[0])
	}
}

// The audit reserves exactly MapCalHetero's K blocks of max R_e: a PM whose
// capacity sits half a block short of that is flagged, and the same PM at
// ΣR_b + max R_e·K passes — so K − 1 or K + 1 blocks would each misjudge one.
func TestHeteroViolationsAtTheBoundary(t *testing.T) {
	hosted := []cloud.VM{
		{ID: 1, POn: 0.05, POff: 0.2, Rb: 10, Re: 6},
		{ID: 2, POn: 0.2, POff: 0.3, Rb: 7, Re: 8},
		{ID: 3, POn: 0.01, POff: 0.09, Rb: 12, Re: 5},
		{ID: 4, POn: 0.1, POff: 0.1, Rb: 5, Re: 7},
		{ID: 5, POn: 0.3, POff: 0.6, Rb: 9, Re: 4},
	}
	pOns, pOffs := make([]float64, len(hosted)), make([]float64, len(hosted))
	sumRb := 0.0
	for i, v := range hosted {
		pOns[i], pOffs[i] = v.POn, v.POff
		sumRb += v.Rb
	}
	exact, err := queuing.MapCalHetero(pOns, pOffs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if exact.K < 1 {
		t.Fatalf("K = %d: the host set needs a block for the boundary to mean anything", exact.K)
	}
	audit := func(capacity float64) []cloud.Violation {
		p, err := cloud.NewPlacement([]cloud.PM{{ID: 0, Capacity: capacity}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range hosted {
			if err := p.Assign(v, 0); err != nil {
				t.Fatal(err)
			}
		}
		violations, err := HeteroViolations(p, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return violations
	}
	const maxRe = 8
	if v := audit(sumRb + maxRe*(float64(exact.K)-0.5)); len(v) != 1 {
		t.Errorf("capacity half a block short of K = %d blocks: violations %v, want one", exact.K, v)
	}
	if v := audit(sumRb + maxRe*float64(exact.K)); v != nil {
		t.Errorf("capacity of exactly K = %d blocks flagged: %v", exact.K, v)
	}
}

func TestHeteroViolationsEmptyPlacement(t *testing.T) {
	p, _ := cloud.NewPlacement(mkPool(2, 100))
	v, err := HeteroViolations(p, 0.01)
	if err != nil || v != nil {
		t.Errorf("empty placement: %v, %v", v, err)
	}
}
