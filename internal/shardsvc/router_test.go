package shardsvc

import "testing"

// pick joins the draw's candidate with the most headroom, ties to the lowest
// index. The test recomputes each draw's candidates from splitmix64(seed +
// seq) and picks the answer its own way: the largest headroom among them,
// then the smallest index holding it. The headroom function is skewed (most
// shards near empty, a few with room) and changes with every draw, so a
// router that joined the fullest candidate, or broke ties upward, answers
// differently on many draws.
func TestRouterPicksMostHeadroom(t *testing.T) {
	for _, c := range []struct{ n, d int }{{4, 2}, {8, 2}, {8, 3}, {5, 4}, {3, 3}, {6, 9}} {
		const seed = 1234
		r := newRouter(c.n, c.d, seed)
		for seq := uint64(1); seq <= 2000; seq++ {
			headroom := func(i int) int {
				h := int(splitmix64(seq<<8|uint64(i)) % 16)
				if h < 10 {
					return h % 3 // the common case: nearly full, many ties
				}
				return h
			}
			var cands []int
			if c.d >= c.n {
				for i := 0; i < c.n; i++ {
					cands = append(cands, i)
				}
			} else {
				base := splitmix64(seed + seq)
				for j := 0; j < c.d; j++ {
					cands = append(cands, int(splitmix64(base+uint64(j))%uint64(c.n)))
				}
			}
			most := headroom(cands[0])
			for _, cand := range cands {
				most = max(most, headroom(cand))
			}
			want := c.n
			for _, cand := range cands {
				if headroom(cand) == most {
					want = min(want, cand)
				}
			}
			if got := r.pick(headroom); got != want {
				t.Fatalf("n=%d d=%d draw %d: candidates %v with headroom %v → pick %d, want %d",
					c.n, c.d, seq, cands, heads(cands, headroom), got, want)
			}
		}
	}
}

func heads(cands []int, headroom func(int) int) []int {
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = headroom(c)
	}
	return out
}
