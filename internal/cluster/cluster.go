// Package cluster groups VMs with similar spike size R_e, the first step of
// the paper's two-step consolidation (Algorithm 2, lines 7–9): collocating
// VMs with similar R_e keeps the uniform block size (max R_e of the host set)
// close to each VM's own spike, minimising wasted reservation.
//
// The paper uses "a simple O(n) clustering method" without specifying it; we
// implement a range-bucket scheme (equal-width buckets over the observed R_e
// range) as the default, plus 1-D k-means and equal-frequency alternatives
// for the ablation benchmarks.
package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cloud"
)

// Sorter computes Algorithm 2's placement order (lines 7–9) — clusters by
// largest R_e descending, VMs inside by R_b descending, then id — as a
// permutation, so a caller carrying something beside each VM needs no
// relink: the i-th VM to place is vms[perm[i]]. RangeBuckets allocates
// nothing once the reused buffers have grown to the largest batch. The zero
// value is ready to use; perm is valid until the Sorter's next call.
type Sorter struct {
	perm  []int  // the permutation handed back; k-means / quantiles: VMs by R_e first
	rank  []int  // per VM: its cluster's rank, 0 placed first (or a label, see byLabel)
	start []int  // counting-sort offsets, one per rank, plus one
	slots []slot // byRank's layout: each VM's sort keys beside its index
}

// slot is one VM in byRank's layout: its sort keys and its input position.
type slot struct {
	rb     float64
	id, at int
}

// RangeBuckets orders vms by numBuckets equal-width buckets over [min R_e,
// max R_e], in O(n) plus the sorts of the buckets themselves. A bucket's
// largest R_e exceeds every R_e of the buckets below it, so clusters by
// largest R_e descending are buckets by index descending, and one counting
// sort puts every VM in its cluster's place. All R_e equal is one cluster.
func (s *Sorter) RangeBuckets(vms []cloud.VM, numBuckets int) ([]int, error) {
	if err := checkArgs(vms, "numBuckets", numBuckets); err != nil {
		return nil, err
	}
	minRe, maxRe := vms[0].Re, vms[0].Re
	for _, v := range vms[1:] {
		minRe = math.Min(minRe, v.Re)
		maxRe = math.Max(maxRe, v.Re)
	}
	if maxRe == minRe {
		numBuckets = 1
	}
	width := (maxRe - minRe) / float64(numBuckets)
	s.rank = grow(s.rank, len(vms))
	for i, v := range vms {
		// Clamped: maxRe lands one past the end, an unvalidated NaN or ±Inf below 0.
		b := max(0, min(int((v.Re-minRe)/width), numBuckets-1))
		s.rank[i] = numBuckets - 1 - b
	}
	return s.byRank(vms, numBuckets), nil
}

// KMeans orders vms by 1-D k-means on R_e (Lloyd's algorithm), at most k
// clusters. Centroids are seeded evenly across the sorted R_e values;
// iteration stops at convergence or after 50 rounds. With k ≥ len(vms)
// every VM is a cluster of its own.
func (s *Sorter) KMeans(vms []cloud.VM, k int) ([]int, error) {
	if err := checkArgs(vms, "k", k); err != nil {
		return nil, err
	}
	n := len(vms)
	label := grow(s.rank, n)
	s.rank = label
	if k >= n {
		identity(label, n)
		return s.byLabel(vms, n), nil
	}
	byRe := s.sortByRe(vms)
	centroids := make([]float64, k)
	for c := range centroids {
		centroids[c] = vms[byRe[c*n/k]].Re
	}
	clear(label)
	for iter := 0; iter < 50; iter++ {
		changed := false
		for _, i := range byRe {
			best, bestDist := 0, math.Inf(1)
			for c, mu := range centroids {
				if d := math.Abs(vms[i].Re - mu); d < bestDist {
					best, bestDist = c, d
				}
			}
			changed = changed || label[i] != best
			label[i] = best
		}
		// Recompute centroids, summing in ascending R_e order.
		sums, counts := make([]float64, k), make([]int, k)
		for _, i := range byRe {
			sums[label[i]] += vms[i].Re
			counts[label[i]]++
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
	return s.byLabel(vms, k), nil
}

// Quantiles orders vms by numBuckets equal-frequency buckets over the R_e
// values in ascending order (ties kept in input order) — unlike equal-width
// buckets, every cluster gets ~n/k VMs, so skewed R_e distributions cannot
// collapse most VMs into one bucket. The remainder spreads over the leading
// buckets; numBuckets is capped at len(vms).
func (s *Sorter) Quantiles(vms []cloud.VM, numBuckets int) ([]int, error) {
	if err := checkArgs(vms, "numBuckets", numBuckets); err != nil {
		return nil, err
	}
	n := len(vms)
	numBuckets = min(numBuckets, n)
	byRe := s.sortByRe(vms)
	s.rank = grow(s.rank, n)
	base, extra := n/numBuckets, n%numBuckets
	for at, i := range byRe {
		// The first extra buckets hold base+1 VMs, the rest base: at/(base+1)
		// counts the former, (at−extra)/base the latter, the larger is right.
		s.rank[i] = max(at/(base+1), (at-extra)/base)
	}
	return s.byLabel(vms, numBuckets), nil
}

// Unclustered is the no-clustering ablation: R_e descending, then R_b
// descending, then id, then input position — every distinct R_e a cluster.
func (s *Sorter) Unclustered(vms []cloud.VM) []int {
	byRe := s.sortByRe(vms)
	s.rank = grow(s.rank, len(vms))
	k := 0
	for j, i := range byRe {
		if j > 0 && vms[i].Re != vms[byRe[j-1]].Re {
			k++
		}
		s.rank[i] = k
	}
	return s.byLabel(vms, k+1)
}

// checkArgs rejects an empty fleet and a cluster count below one.
func checkArgs(vms []cloud.VM, name string, clusters int) error {
	if len(vms) == 0 {
		return fmt.Errorf("cluster: no VMs to cluster")
	}
	if clusters < 1 {
		return fmt.Errorf("cluster: %s = %d, want ≥ 1", name, clusters)
	}
	return nil
}

// sortByRe returns the VM indices by ascending R_e (stable), in s.perm.
func (s *Sorter) sortByRe(vms []cloud.VM) []int {
	s.perm = identity(s.perm, len(vms))
	slices.SortStableFunc(s.perm, func(a, b int) int { return cmp.Compare(vms[a].Re, vms[b].Re) })
	return s.perm
}

// byLabel turns each VM's cluster label in s.rank (one of k) into its
// cluster's rank — clusters by largest R_e descending, counted from 0 as the
// paper's block size, then by smallest VM id — and finishes as byRank.
func (s *Sorter) byLabel(vms []cloud.VM, k int) []int {
	maxRe, minID, order := make([]float64, k), make([]int, k), identity(nil, k)
	for l := range minID {
		minID[l] = math.MaxInt
	}
	for i, v := range vms {
		l := s.rank[i]
		maxRe[l], minID[l] = max(maxRe[l], v.Re), min(minID[l], v.ID)
	}
	slices.SortFunc(order, func(a, b int) int {
		if maxRe[a] != maxRe[b] {
			return descending(maxRe[a], maxRe[b])
		}
		return cmp.Or(cmp.Compare(minID[a], minID[b]), cmp.Compare(a, b))
	})
	for r, l := range order {
		minID[l] = r // minID is spent: it becomes each label's rank
	}
	for i, l := range s.rank[:len(vms)] {
		s.rank[i] = minID[l]
	}
	return s.byRank(vms, k)
}

// byRank lays the VMs out cluster by cluster — a stable counting sort on
// s.rank, nRanks ranks — then sorts each cluster by R_b descending, then id,
// then input position (only VMs repeating an id tie on the first two). The
// counting sort copies each VM's sort keys beside its index, so the cluster
// sorts read contiguous memory instead of the VMs scattered across vms.
func (s *Sorter) byRank(vms []cloud.VM, nRanks int) []int {
	start := grow(s.start, nRanks+1)
	s.start = start
	clear(start)
	rank := s.rank[:len(vms)]
	for _, r := range rank {
		start[r+1]++
	}
	for r := 1; r <= nRanks; r++ {
		start[r] += start[r-1]
	}
	s.slots = grow(s.slots, len(vms))
	for i, r := range rank {
		s.slots[start[r]] = slot{rb: vms[i].Rb, id: vms[i].ID, at: i}
		start[r]++
	}
	lo := 0
	for _, hi := range start[:nRanks] { // start[r] now ends cluster r
		slices.SortFunc(s.slots[lo:hi], func(a, b slot) int {
			if a.rb != b.rb {
				return descending(a.rb, b.rb)
			}
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.at, b.at))
		})
		lo = hi
	}
	s.perm = grow(s.perm, len(vms))
	for j, e := range s.slots {
		s.perm[j] = e.at
	}
	return s.perm
}

// descending orders two unequal values larger-first.
func descending(a, b float64) int {
	if a > b {
		return -1
	}
	return 1
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// identity returns buf resized to n and holding 0, 1, …, n−1.
func identity(buf []int, n int) []int {
	buf = grow(buf, n)
	for i := range buf {
		buf[i] = i
	}
	return buf
}
