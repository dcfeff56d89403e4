// Package cluster groups VMs with similar spike size R_e, the first step of
// the paper's two-step consolidation (Algorithm 2, lines 7–9): collocating
// VMs with similar R_e keeps the uniform block size (max R_e of the host set)
// close to each VM's own spike, minimising wasted reservation.
//
// The paper uses "a simple O(n) clustering method" without specifying it; we
// implement a range-bucket scheme (equal-width buckets over the observed R_e
// range) as the default, plus a 1-D k-means alternative for the ablation
// benchmarks.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

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

// ByKMeans partitions VMs into at most k clusters by 1-D k-means (Lloyd's
// algorithm on R_e), the higher-quality alternative used in ablations.
// Centroids are seeded evenly across the sorted R_e values; iteration stops
// at convergence or maxIter.
func ByKMeans(vms []cloud.VM, k, maxIter int) ([]Cluster, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("cluster: no VMs to cluster")
	}
	if k < 1 {
		return nil, fmt.Errorf("cluster: k = %d, want ≥ 1", k)
	}
	if maxIter < 1 {
		maxIter = 50
	}
	if k >= len(vms) {
		// One VM per cluster (or fewer clusters than requested).
		out := make([]Cluster, 0, len(vms))
		for _, v := range vms {
			out = append(out, newCluster([]cloud.VM{v}))
		}
		return out, nil
	}

	sorted := append([]cloud.VM(nil), vms...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Re < sorted[j].Re })
	centroids := make([]float64, k)
	for i := range centroids {
		centroids[i] = sorted[i*len(sorted)/k].Re
	}

	assign := make([]int, len(sorted))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, v := range sorted {
			best, bestDist := 0, math.Inf(1)
			for c, mu := range centroids {
				if d := math.Abs(v.Re - mu); d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		sums := make([]float64, k)
		counts := make([]int, k)
		for i, v := range sorted {
			sums[assign[i]] += v.Re
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] > 0 {
				centroids[c] = sums[c] / float64(counts[c])
			}
		}
		if !changed {
			break
		}
	}

	groups := make([][]cloud.VM, k)
	for i, v := range sorted {
		groups[assign[i]] = append(groups[assign[i]], v)
	}
	var out []Cluster
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		out = append(out, newCluster(g))
	}
	return out, nil
}

// ByQuantiles partitions VMs into numBuckets equal-frequency buckets over the
// sorted R_e values — unlike equal-width buckets, every cluster gets ~n/k
// VMs, so skewed R_e distributions cannot collapse most VMs into one bucket.
// The remainder spreads over the leading buckets.
func ByQuantiles(vms []cloud.VM, numBuckets int) ([]Cluster, error) {
	if len(vms) == 0 {
		return nil, fmt.Errorf("cluster: no VMs to cluster")
	}
	if numBuckets < 1 {
		return nil, fmt.Errorf("cluster: numBuckets = %d, want ≥ 1", numBuckets)
	}
	if numBuckets > len(vms) {
		numBuckets = len(vms)
	}
	sorted := append([]cloud.VM(nil), vms...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Re < sorted[j].Re })
	base := len(sorted) / numBuckets
	extra := len(sorted) % numBuckets
	out := make([]Cluster, 0, numBuckets)
	idx := 0
	for b := 0; b < numBuckets; b++ {
		size := base
		if b < extra {
			size++
		}
		out = append(out, newCluster(sorted[idx:idx+size]))
		idx += size
	}
	return out, nil
}

// Singletons places every VM in its own cluster — the "no clustering"
// baseline for the ablation.
func Singletons(vms []cloud.VM) []Cluster {
	out := make([]Cluster, 0, len(vms))
	for _, v := range vms {
		out = append(out, newCluster([]cloud.VM{v}))
	}
	return out
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

// descending orders two unequal values larger-first.
func descending(a, b float64) int {
	if a > b {
		return -1
	}
	return 1
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
