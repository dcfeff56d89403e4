// Package cluster groups VMs with similar spike size R_e, the first step of
// the paper's two-step consolidation (Algorithm 2, lines 7–9): collocating
// VMs with similar R_e keeps the uniform block size (max R_e of the host set)
// close to each VM's own spike, minimising wasted reservation.
//
// The paper uses "a simple O(n) clustering method" without specifying it; we
// implement a range-bucket scheme: equal-width buckets over the observed R_e
// range. Which grouping is used matters little — k-means, equal-frequency
// buckets and a plain sort by R_e all placed within a PM of it (see
// EXPERIMENTS.md's ablation) — so it is the only one.
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
	perm  []int  // the permutation handed back
	rank  []int  // per VM: its cluster's rank, 0 placed first
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
