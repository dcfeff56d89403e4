package cluster

// ByRangeBuckets and SortForPlacement are the reference form of Algorithm 2
// lines 7–9, as the package computed them before Sorter: every cluster a
// fresh VM slice, clusters sorted by (MaxRe desc, smallest id) with a
// comparator that rescans each cluster. TestSorterMatchesOracle pins
// Sorter.RangeBuckets to them.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cloud"
)

// Cluster is one group of VMs with similar R_e.
type Cluster struct {
	VMs   []cloud.VM
	MaxRe float64 // the representative (and block-size-determining) spike
}

// ByRangeBuckets partitions VMs into at most numBuckets equal-width buckets
// over [min R_e, max R_e] in O(n) time. Empty buckets are dropped. With
// numBuckets ≤ 1, or when all R_e are equal, a single cluster is returned.
func ByRangeBuckets(vms []cloud.VM, numBuckets int) ([]Cluster, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("cluster: no VMs to cluster")
	}
	if numBuckets < 1 {
		return nil, fmt.Errorf("cluster: numBuckets = %d, want ≥ 1", numBuckets)
	}
	minRe, maxRe := vms[0].Re, vms[0].Re
	for _, v := range vms[1:] {
		minRe = math.Min(minRe, v.Re)
		maxRe = math.Max(maxRe, v.Re)
	}
	if numBuckets == 1 || maxRe == minRe {
		c := Cluster{VMs: append([]cloud.VM(nil), vms...), MaxRe: maxRe}
		return []Cluster{c}, nil
	}
	width := (maxRe - minRe) / float64(numBuckets)
	bucketOf := func(v cloud.VM) int {
		idx := int((v.Re - minRe) / width)
		if idx >= numBuckets { // v.Re == maxRe lands one past the end
			idx = numBuckets - 1
		}
		return idx
	}
	// Count, then carve every bucket out of one backing array at its final
	// size (capped, so a caller's append cannot reach a neighbour): with the
	// default n/8 buckets, growing each by append costs more than the pass.
	counts := make([]int, numBuckets)
	for _, v := range vms {
		counts[bucketOf(v)]++
	}
	backing := make([]cloud.VM, len(vms))
	buckets := make([][]cloud.VM, numBuckets)
	from := 0
	for idx, n := range counts {
		buckets[idx] = backing[from : from : from+n]
		from += n
	}
	for _, v := range vms {
		idx := bucketOf(v)
		buckets[idx] = append(buckets[idx], v)
	}
	out := make([]Cluster, 0, numBuckets)
	for _, b := range buckets {
		if len(b) > 0 {
			out = append(out, newCluster(b))
		}
	}
	return out, nil
}

// SortForPlacement applies the ordering of Algorithm 2, lines 8–9: clusters
// by MaxRe descending, VMs within each cluster by R_b descending. Ties break
// by VM id for determinism — both comparators end on an id that is unique
// across a validated fleet, so they are total orders and the sort needs no
// stability. It sorts in place and returns the flattened VM order that
// First-Fit will consume.
func SortForPlacement(clusters []Cluster) []cloud.VM {
	slices.SortFunc(clusters, func(a, b Cluster) int {
		if a.MaxRe != b.MaxRe {
			return descending(a.MaxRe, b.MaxRe)
		}
		return cmp.Compare(clusterMinID(a), clusterMinID(b))
	})
	total := 0
	for _, c := range clusters {
		total += len(c.VMs)
	}
	flat := make([]cloud.VM, 0, total)
	for _, c := range clusters {
		slices.SortFunc(c.VMs, func(a, b cloud.VM) int {
			if a.Rb != b.Rb {
				return descending(a.Rb, b.Rb)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		flat = append(flat, c.VMs...)
	}
	return flat
}

func newCluster(vms []cloud.VM) Cluster {
	maxRe := 0.0
	for _, v := range vms {
		if v.Re > maxRe {
			maxRe = v.Re
		}
	}
	return Cluster{VMs: vms, MaxRe: maxRe}
}

func clusterMinID(c Cluster) int {
	min := math.MaxInt
	for _, v := range c.VMs {
		if v.ID < min {
			min = v.ID
		}
	}
	return min
}

// TestSorterMatchesOracle: RangeBuckets returns exactly the order of
// ByRangeBuckets followed by SortForPlacement — on random fleets, on
// fleets of few distinct R_e / R_b values (long runs of ties, ordered by id
// alone), on all-equal R_e, and on shuffled sparse ids, for one cluster, a
// few, the default n/8 and more clusters than VMs. One Sorter serves every
// case, so scratch left by a larger call is part of what is tested.
func TestSorterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	levels := []float64{0, 2, 5, 5.5, 11, 20}
	fleets := map[string]func(n int) []cloud.VM{
		"random": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = vmRbRe(i, 1+20*rng.Float64(), 20*rng.Float64())
			}
			return vms
		},
		"few levels": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = vmRbRe(i, 1+levels[rng.Intn(len(levels))], levels[rng.Intn(len(levels))])
			}
			return vms
		},
		"equal Re": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i := range vms {
				vms[i] = vmRbRe(i, 1+levels[rng.Intn(len(levels))], 7)
			}
			return vms
		},
		"shuffled sparse ids": func(n int) []cloud.VM {
			vms := make([]cloud.VM, n)
			for i, at := range rng.Perm(n) {
				vms[i] = vmRbRe(1000+37*at, 1+20*rng.Float64(), levels[rng.Intn(len(levels))])
			}
			return vms
		},
	}
	var s Sorter
	apply := func(vms []cloud.VM, perm []int) []cloud.VM {
		out := make([]cloud.VM, len(perm))
		for j, i := range perm {
			out[j] = vms[i]
		}
		return out
	}
	for _, name := range []string{"random", "few levels", "equal Re", "shuffled sparse ids"} {
		for _, n := range []int{500, 1, 2, 7, 8, 9, 64} {
			for _, k := range []int{1, 3, max(1, n/8), n + 5} {
				vms := fleets[name](n)
				input := slices.Clone(vms)
				perm, err := s.RangeBuckets(vms, k)
				if err != nil {
					t.Fatal(err)
				}
				clusters, err := ByRangeBuckets(vms, k)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := apply(vms, perm), SortForPlacement(clusters); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d k=%d: order diverges from the oracle\n got %v\nwant %v", name, n, k, got, want)
				}
				if !slices.Equal(vms, input) {
					t.Fatalf("%s n=%d k=%d: the Sorter mutated its input", name, n, k)
				}
			}
		}
	}
}

func TestSorterErrors(t *testing.T) {
	var s Sorter
	if _, err := s.RangeBuckets(nil, 3); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := s.RangeBuckets([]cloud.VM{vmRe(1, 5)}, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}
