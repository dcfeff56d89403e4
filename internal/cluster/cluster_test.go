package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cloud"
)

func vmRe(id int, re float64) cloud.VM {
	return cloud.VM{ID: id, POn: 0.01, POff: 0.09, Rb: 10, Re: re}
}

func vmRbRe(id int, rb, re float64) cloud.VM {
	return cloud.VM{ID: id, POn: 0.01, POff: 0.09, Rb: rb, Re: re}
}

func totalVMs(clusters []Cluster) int {
	n := 0
	for _, c := range clusters {
		n += len(c.VMs)
	}
	return n
}

func TestByRangeBucketsErrors(t *testing.T) {
	if _, err := ByRangeBuckets(nil, 3); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ByRangeBuckets([]cloud.VM{vmRe(1, 5)}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestByRangeBucketsSingleCluster(t *testing.T) {
	vms := []cloud.VM{vmRe(1, 5), vmRe(2, 9)}
	clusters, err := ByRangeBuckets(vms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 || len(clusters[0].VMs) != 2 {
		t.Fatalf("expected one cluster of 2, got %v", clusters)
	}
	if clusters[0].MaxRe != 9 {
		t.Errorf("MaxRe = %v, want 9", clusters[0].MaxRe)
	}
}

func TestByRangeBucketsUniformRe(t *testing.T) {
	vms := []cloud.VM{vmRe(1, 5), vmRe(2, 5), vmRe(3, 5)}
	clusters, err := ByRangeBuckets(vms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) != 1 {
		t.Errorf("uniform Re should give one cluster, got %d", len(clusters))
	}
}

func TestByRangeBucketsSeparatesExtremes(t *testing.T) {
	vms := []cloud.VM{vmRe(1, 1), vmRe(2, 1.2), vmRe(3, 10), vmRe(4, 9.8)}
	clusters, err := ByRangeBuckets(vms, 4)
	if err != nil {
		t.Fatal(err)
	}
	if totalVMs(clusters) != 4 {
		t.Fatalf("VMs lost: %d", totalVMs(clusters))
	}
	// Smallest and largest spikes must land in different clusters.
	find := func(id int) int {
		for ci, c := range clusters {
			for _, v := range c.VMs {
				if v.ID == id {
					return ci
				}
			}
		}
		return -1
	}
	if find(1) == find(3) {
		t.Error("Re=1 and Re=10 clustered together with 4 buckets")
	}
	if find(1) != find(2) {
		t.Error("Re=1 and Re=1.2 should share a bucket")
	}
}

func TestByRangeBucketsMaxReLandsInLastBucket(t *testing.T) {
	// The VM with the maximum Re must not be dropped by the index clamp.
	vms := []cloud.VM{vmRe(1, 0), vmRe(2, 100)}
	clusters, err := ByRangeBuckets(vms, 5)
	if err != nil {
		t.Fatal(err)
	}
	if totalVMs(clusters) != 2 {
		t.Errorf("VM with max Re was dropped")
	}
}

func TestSortForPlacementOrdering(t *testing.T) {
	// Two clusters: big spikes {Re≈10} and small spikes {Re≈2}.
	clusters := []Cluster{
		newCluster([]cloud.VM{vmRbRe(1, 5, 2), vmRbRe(2, 8, 2)}),
		newCluster([]cloud.VM{vmRbRe(3, 4, 10), vmRbRe(4, 9, 10)}),
	}
	flat := SortForPlacement(clusters)
	wantIDs := []int{4, 3, 2, 1} // big-Re cluster first, Rb desc inside
	if len(flat) != 4 {
		t.Fatalf("flat length %d", len(flat))
	}
	for i, want := range wantIDs {
		if flat[i].ID != want {
			t.Errorf("position %d: got VM %d, want %d", i, flat[i].ID, want)
		}
	}
}

func TestSortForPlacementDeterministicTies(t *testing.T) {
	mk := func() []Cluster {
		return []Cluster{
			newCluster([]cloud.VM{vmRbRe(3, 5, 4), vmRbRe(1, 5, 4)}),
			newCluster([]cloud.VM{vmRbRe(2, 5, 4)}),
		}
	}
	a := SortForPlacement(mk())
	b := SortForPlacement(mk())
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("nondeterministic order at %d: %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	// Within the first cluster, equal Rb ties break by id ascending.
	if a[0].ID != 1 || a[1].ID != 3 {
		t.Errorf("tie-break order wrong: %d, %d", a[0].ID, a[1].ID)
	}
}

// Property: range-bucket clustering partitions the input — no VM lost or
// duplicated — and every cluster's MaxRe is the max of its members.
func TestPropClusteringIsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		vms := make([]cloud.VM, n)
		for i := range vms {
			vms[i] = vmRe(i, 2+18*rng.Float64())
		}
		clusters, err := ByRangeBuckets(vms, 1+rng.Intn(8))
		if err != nil {
			return false
		}
		seen := make(map[int]bool)
		for _, c := range clusters {
			maxRe := 0.0
			for _, v := range c.VMs {
				if seen[v.ID] {
					return false
				}
				seen[v.ID] = true
				if v.Re > maxRe {
					maxRe = v.Re
				}
			}
			if c.MaxRe != maxRe {
				return false
			}
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: SortForPlacement emits clusters in non-increasing MaxRe order and
// VMs within a cluster in non-increasing Rb order.
func TestPropSortForPlacementMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		vms := make([]cloud.VM, n)
		for i := range vms {
			vms[i] = vmRbRe(i, 2+18*rng.Float64(), 2+18*rng.Float64())
		}
		clusters, err := ByRangeBuckets(vms, 1+rng.Intn(6))
		if err != nil {
			return false
		}
		flat := SortForPlacement(clusters)
		if len(flat) != n {
			return false
		}
		// Reconstruct cluster boundaries by walking the sorted clusters.
		idx := 0
		prevMax := -1.0
		for ci, c := range clusters {
			if ci > 0 && c.MaxRe > prevMax {
				return false
			}
			prevMax = c.MaxRe
			prevRb := -1.0
			for vi := range c.VMs {
				if flat[idx].ID != c.VMs[vi].ID {
					return false
				}
				if vi > 0 && c.VMs[vi].Rb > prevRb {
					return false
				}
				prevRb = c.VMs[vi].Rb
				idx++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
