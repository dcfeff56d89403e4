package queuing

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGeomGeomKValidation(t *testing.T) {
	if _, err := NewGeomGeomK(4, -1, paperPOn, paperPOff); err == nil {
		t.Error("negative blocks accepted")
	}
	if _, err := NewGeomGeomK(4, 5, paperPOn, paperPOff); err == nil {
		t.Error("blocks > sources accepted")
	}
	if _, err := NewGeomGeomK(0, 0, paperPOn, paperPOff); err == nil {
		t.Error("zero sources accepted")
	}
	if _, err := NewGeomGeomK(4, 2, 0, paperPOff); err == nil {
		t.Error("invalid p_on accepted")
	}
}

func TestGeomGeomKAccessors(t *testing.T) {
	g, err := NewGeomGeomK(8, 3, paperPOn, paperPOff)
	if err != nil {
		t.Fatal(err)
	}
	if g.Sources() != 8 || g.Blocks() != 3 {
		t.Errorf("accessors: sources=%d blocks=%d", g.Sources(), g.Blocks())
	}
}

func TestBlockingProbabilityMatchesMapCal(t *testing.T) {
	res, err := MapCal(10, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGeomGeomK(10, res.K, paperPOn, paperPOff)
	if err != nil {
		t.Fatal(err)
	}
	bp := g.BlockingProbability()
	if math.Abs(bp-res.CVR) > 1e-12 {
		t.Errorf("blocking probability %v != MapCal CVR %v", bp, res.CVR)
	}
}

func TestBlockingProbabilityFullBlocksIsZero(t *testing.T) {
	g, _ := NewGeomGeomK(6, 6, paperPOn, paperPOff)
	if bp := g.BlockingProbability(); bp != 0 {
		t.Errorf("blocking probability with K=k is %v, want 0", bp)
	}
}

func TestUtilizationBounds(t *testing.T) {
	g, _ := NewGeomGeomK(10, 3, paperPOn, paperPOff)
	u := g.Utilization()
	if u < 0 || u > 1 {
		t.Errorf("utilization %v outside [0,1]", u)
	}
	mean := g.MeanBusyBlocks()
	if math.Abs(mean-u*3) > 1e-12 {
		t.Errorf("MeanBusyBlocks %v != utilization·K %v", mean, u*3)
	}
}

func TestUtilizationZeroBlocks(t *testing.T) {
	g, _ := NewGeomGeomK(5, 0, paperPOn, paperPOff)
	if u := g.Utilization(); u != 0 {
		t.Errorf("utilization with K=0 is %v, want 0", u)
	}
}

func TestUtilizationDecreasesWithMoreBlocks(t *testing.T) {
	prev := 1.1
	for kb := 1; kb <= 10; kb++ {
		g, _ := NewGeomGeomK(10, kb, 0.1, 0.1)
		u := g.Utilization()
		if u > prev+1e-12 {
			t.Errorf("utilization increased at K=%d: %v > %v", kb, u, prev)
		}
		prev = u
	}
}

func TestSimulateCVRMatchesAnalytic(t *testing.T) {
	res, err := MapCal(12, paperPOn, paperPOff, paperRho)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := NewGeomGeomK(12, res.K, paperPOn, paperPOff)
	analytic := g.BlockingProbability()
	rng := rand.New(rand.NewSource(99))
	stats, err := g.SimulateCVR(600000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 600000 {
		t.Errorf("stats.Steps = %d", stats.Steps)
	}
	if math.Abs(stats.EmpiricalCVR-analytic) > 0.003 {
		t.Errorf("empirical CVR %v vs analytic %v", stats.EmpiricalCVR, analytic)
	}
	if stats.EmpiricalCVR > paperRho*2 {
		t.Errorf("empirical CVR %v far above rho %v", stats.EmpiricalCVR, paperRho)
	}
}

func TestSimulateCVRErrors(t *testing.T) {
	g, _ := NewGeomGeomK(4, 2, paperPOn, paperPOff)
	if _, err := g.SimulateCVR(0, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero steps accepted")
	}
}

// Property: empirical CVR of a MapCal-sized queue stays below ~rho for random
// parameters (statistical slack 2.5× to keep the test robust).
func TestPropSimulatedCVRBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(12)
		pOn := 0.01 + 0.1*rng.Float64()
		pOff := 0.05 + 0.3*rng.Float64()
		rho := 0.01 + 0.05*rng.Float64()
		res, err := MapCal(k, pOn, pOff, rho)
		if err != nil {
			return false
		}
		g, err := NewGeomGeomK(k, res.K, pOn, pOff)
		if err != nil {
			return false
		}
		stats, err := g.SimulateCVR(60000, rng)
		if err != nil {
			return false
		}
		return stats.EmpiricalCVR <= rho*2.5+0.005
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: blocking probability is monotone non-increasing in the number of
// blocks for random sources.
func TestPropBlockingMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(15)
		pOn := 0.01 + 0.5*rng.Float64()
		pOff := 0.01 + 0.5*rng.Float64()
		prev := 2.0
		for kb := 0; kb <= k; kb++ {
			g, err := NewGeomGeomK(k, kb, pOn, pOff)
			if err != nil {
				return false
			}
			bp := g.BlockingProbability()
			if bp > prev+1e-12 {
				return false
			}
			prev = bp
		}
		return prev == 0 // full provisioning never blocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
