package shardsvc

import "sync/atomic"

// router picks a shard per arrival by power-of-d choices: draw d candidate
// shards (with replacement) from a counter-keyed hash, read each candidate's
// headroom counter, and join the one with the most free slots — ties to the
// lowest index. Mitzenmacher's classic result is that d = 2 already collapses
// the maximum load imbalance exponentially versus random placement, at two
// atomic loads per arrival instead of a full scan; d ≥ shard count
// degenerates to exact least-loaded.
//
// Candidates come from splitmix64 finalisations of (seed, draw counter) —
// never the global RNG or the clock — so a sequential submission stream is
// routed identically on every run with the same seed, shard count and d:
// the routing-replay determinism contract.
type router struct {
	n    int
	d    int
	seed uint64
	seq  atomic.Uint64
}

func newRouter(n, d int, seed uint64) *router {
	if d > n {
		d = n
	}
	return &router{n: n, d: d, seed: seed}
}

// splitmix64 is the SplitMix64 finaliser — the same avalanche mix the faults
// and workload packages use for their seeded per-entity streams.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// pick returns the shard for the next arrival. headroom reads a shard's
// current free-slot count (placesvc.Service.Headroom, one atomic load).
func (r *router) pick(headroom func(int) int) int {
	if r.n == 1 {
		return 0
	}
	if r.d >= r.n {
		// Least-loaded: scan every shard, ties to the lowest index.
		best, bestHead := 0, headroom(0)
		for i := 1; i < r.n; i++ {
			if h := headroom(i); h > bestHead {
				best, bestHead = i, h
			}
		}
		return best
	}
	seq := r.seq.Add(1)
	base := splitmix64(r.seed + seq)
	best, bestHead := -1, -1
	for j := 0; j < r.d; j++ {
		cand := int(splitmix64(base+uint64(j)) % uint64(r.n))
		h := headroom(cand)
		if h > bestHead || (h == bestHead && cand < best) {
			best, bestHead = cand, h
		}
	}
	return best
}
