package fitindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveFirstAtLeast is the linear-scan oracle for MaxTree.FirstAtLeast.
func naiveFirstAtLeast(scores []float64, from int, need float64) int {
	for i := from; i < len(scores); i++ {
		if i >= 0 && scores[i] >= need {
			return i
		}
	}
	return -1
}

func TestMaxTreeAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 100, 257} {
		tree := NewMaxTree(n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = NegInf
		}
		for op := 0; op < 2000; op++ {
			if rng.Float64() < 0.5 {
				i := rng.Intn(n)
				v := rng.Float64() * 100
				if rng.Float64() < 0.1 {
					v = NegInf
				}
				scores[i] = v
				tree.Set(i, v)
			} else {
				from := rng.Intn(n+2) - 1
				need := rng.Float64() * 100
				got := tree.FirstAtLeast(from, need)
				want := naiveFirstAtLeast(scores, max(from, 0), need)
				if got != want {
					t.Fatalf("n=%d FirstAtLeast(%d, %v) = %d, oracle %d", n, from, need, got, want)
				}
			}
		}
	}
}

func TestMaxTreeBasics(t *testing.T) {
	tree := NewMaxTree(4)
	if tree.Len() != 4 {
		t.Fatalf("Len = %d", tree.Len())
	}
	if got := tree.FirstAtLeast(0, 0); got != -1 {
		t.Fatalf("empty tree FirstAtLeast = %d", got)
	}
	tree.Set(2, 5)
	tree.Set(3, 9)
	if got := tree.FirstAtLeast(0, 4); got != 2 {
		t.Fatalf("FirstAtLeast(0,4) = %d, want 2", got)
	}
	if got := tree.FirstAtLeast(3, 4); got != 3 {
		t.Fatalf("FirstAtLeast(3,4) = %d, want 3", got)
	}
	if got := tree.FirstAtLeast(0, 10); got != -1 {
		t.Fatalf("FirstAtLeast(0,10) = %d, want -1", got)
	}
	if got := tree.Get(3); got != 9 {
		t.Fatalf("Get(3) = %v", got)
	}
}

func TestMinTreeAscendOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 5, 64, 130} {
		tree := NewMinTree(n)
		vals := make([]float64, n)
		for i := range vals {
			if rng.Float64() < 0.2 {
				vals[i] = PosInf
			} else {
				// Coarse values force ties, exercising the index tiebreak.
				vals[i] = float64(rng.Intn(5))
			}
			tree.Set(i, vals[i])
		}
		type pair struct {
			v float64
			i int
		}
		var want []pair
		for i, v := range vals {
			if v != PosInf {
				want = append(want, pair{v, i})
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].v != want[b].v {
				return want[a].v < want[b].v
			}
			return want[a].i < want[b].i
		})
		var got []pair
		tree.Ascend(nil, func(pos int, val float64) bool {
			got = append(got, pair{val, pos})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d visited %d positions, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d position %d: got %+v, want %+v", n, i, got[i], want[i])
			}
		}
	}
}

// Fill must leave both trees in exactly the state an equivalent Set loop
// would: same answers to every query, regardless of the tree's prior content.
func TestFillMatchesSetLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 7, 8, 100, 257} {
		scores := make([]float64, n)
		for i := range scores {
			if rng.Float64() < 0.15 {
				scores[i] = NegInf
			} else {
				scores[i] = rng.Float64() * 100
			}
		}

		// MaxTree: Fill over a dirtied tree vs. per-position Set.
		filled := NewMaxTree(n)
		for i := 0; i < n; i++ {
			filled.Set(i, rng.Float64()*1000) // stale content Fill must erase
		}
		filled.Fill(scores)
		setTree := NewMaxTree(n)
		for i, v := range scores {
			setTree.Set(i, v)
		}
		for trial := 0; trial < 200; trial++ {
			from := rng.Intn(n+2) - 1
			need := rng.Float64() * 100
			if got, want := filled.FirstAtLeast(from, need), setTree.FirstAtLeast(from, need); got != want {
				t.Fatalf("n=%d MaxTree FirstAtLeast(%d, %v): Fill %d, Set loop %d", n, from, need, got, want)
			}
		}
		for i := 0; i < n; i++ {
			if filled.Get(i) != setTree.Get(i) {
				t.Fatalf("n=%d MaxTree Get(%d): Fill %v, Set loop %v", n, i, filled.Get(i), setTree.Get(i))
			}
		}

		// MinTree: same comparison on the Ascend order.
		vals := make([]float64, n)
		for i := range vals {
			if rng.Float64() < 0.2 {
				vals[i] = PosInf
			} else {
				vals[i] = float64(rng.Intn(5)) // ties exercise the index tiebreak
			}
		}
		filledMin := NewMinTree(n)
		for i := 0; i < n; i++ {
			filledMin.Set(i, rng.Float64()*1000)
		}
		filledMin.Fill(vals)
		setMin := NewMinTree(n)
		for i, v := range vals {
			setMin.Set(i, v)
		}
		type pair struct {
			v float64
			i int
		}
		var got, want []pair
		filledMin.Ascend(nil, func(pos int, val float64) bool {
			got = append(got, pair{val, pos})
			return true
		})
		setMin.Ascend(nil, func(pos int, val float64) bool {
			want = append(want, pair{val, pos})
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("n=%d MinTree Ascend visited %d, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d MinTree Ascend[%d]: Fill %+v, Set loop %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestMinTreeAscendEarlyStop(t *testing.T) {
	tree := NewMinTree(8)
	for i := 0; i < 8; i++ {
		tree.Set(i, float64(8-i))
	}
	visited := 0
	scratch := tree.Ascend(nil, func(pos int, val float64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited %d, want 3", visited)
	}
	// The returned scratch is reusable for the next walk.
	visited = 0
	tree.Ascend(scratch, func(pos int, val float64) bool {
		visited++
		return true
	})
	if visited != 8 {
		t.Fatalf("reused-scratch walk visited %d, want 8", visited)
	}
}

func TestMinTreeAddTracksDeltas(t *testing.T) {
	tree := NewMinTree(3)
	tree.Set(0, 1)
	tree.Set(1, 2)
	tree.Set(2, 3)
	tree.Add(1, -1.5) // position 1 now 0.5: new minimum
	first := -1
	tree.Ascend(nil, func(pos int, _ float64) bool {
		first = pos
		return false
	})
	if first != 1 {
		t.Fatalf("min after Add = position %d, want 1", first)
	}
	if got := tree.Get(1); got != 0.5 {
		t.Fatalf("Get(1) = %v, want 0.5", got)
	}
}

// fullWalkSetMax and fullWalkSetMin are the from-scratch references for the
// early-exit Sets: write the leaf, then recompute every ancestor up to the
// root, unconditionally.
func fullWalkSetMax(t *MaxTree, i int, score float64) {
	p := t.size + i
	t.max[p] = score
	for p >>= 1; p >= 1; p >>= 1 {
		l, r := t.max[2*p], t.max[2*p+1]
		if l >= r {
			t.max[p] = l
		} else {
			t.max[p] = r
		}
	}
}

func fullWalkSetMin(t *MinTree, i int, v float64) {
	p := t.size + i
	t.min[p] = v
	for p >>= 1; p >= 1; p >>= 1 {
		t.pull(p)
	}
}

// The early-exit Sets must leave every node — not just every query answer —
// exactly where a full walk to the root leaves it, over random Set /
// FirstAtLeast / Ascend / Fill sequences. Values come from a handful of
// levels plus ±Inf, so equal rewrites, ties (which MinTree breaks toward the
// smaller position) and excluded leaves are all frequent; n covers one leaf,
// powers of two and the padded sizes in between.
func TestSetEarlyExitMatchesFullWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	levels := []float64{NegInf, PosInf, 0, 1, 1, 2, 3.5, 7, 7, 100}
	draw := func() float64 { return levels[rng.Intn(len(levels))] }
	type visit struct {
		pos int
		val float64
	}
	ascend := func(tr *MinTree, limit int) []visit {
		var out []visit
		tr.Ascend(nil, func(pos int, val float64) bool {
			out = append(out, visit{pos, val})
			return len(out) < limit
		})
		return out
	}
	for _, n := range []int{1, 2, 3, 5, 8, 13, 100, 257} {
		fastMax, refMax := NewMaxTree(n), NewMaxTree(n)
		fastMin, refMin := NewMinTree(n), NewMinTree(n)
		vals := make([]float64, n)
		for op := 0; op < 4000; op++ {
			switch r := rng.Intn(20); {
			case r < 12:
				i, v := rng.Intn(n), draw()
				fastMax.Set(i, v)
				fullWalkSetMax(refMax, i, v)
				fastMin.Set(i, v)
				fullWalkSetMin(refMin, i, v)
			case r < 15:
				from, need := rng.Intn(n+2)-1, draw()
				if got, want := fastMax.FirstAtLeast(from, need), refMax.FirstAtLeast(from, need); got != want {
					t.Fatalf("n=%d op %d: FirstAtLeast(%d, %v) = %d, full walk %d", n, op, from, need, got, want)
				}
			case r < 18:
				limit := 1 + rng.Intn(n+1)
				got, want := ascend(fastMin, limit), ascend(refMin, limit)
				if len(got) != len(want) {
					t.Fatalf("n=%d op %d: Ascend visited %d positions, full walk %d", n, op, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("n=%d op %d: Ascend[%d] = %+v, full walk %+v", n, op, k, got[k], want[k])
					}
				}
			default:
				for i := range vals {
					vals[i] = draw()
				}
				short := vals[:rng.Intn(n+1)] // positions past it become ∓Inf
				fastMax.Fill(short)
				refMax.Fill(short)
				fastMin.Fill(short)
				refMin.Fill(short)
			}
			for p := 1; p < 2*fastMax.size; p++ {
				if fastMax.max[p] != refMax.max[p] {
					t.Fatalf("n=%d op %d: MaxTree node %d = %v, full walk %v", n, op, p, fastMax.max[p], refMax.max[p])
				}
				if fastMin.min[p] != refMin.min[p] || fastMin.arg[p] != refMin.arg[p] {
					t.Fatalf("n=%d op %d: MinTree node %d = (%v, %d), full walk (%v, %d)",
						n, op, p, fastMin.min[p], fastMin.arg[p], refMin.min[p], refMin.arg[p])
				}
			}
		}
	}
}

// fuzzSizes are the tree sizes FuzzMaxTreeOps draws from: none a power of two,
// so every tree has padding leaves past n that a query must never return.
var fuzzSizes = [...]int{1, 3, 5, 13, 257}

// fuzzValues are the scores and needs FuzzMaxTreeOps draws from: both
// infinities and a few small integers, so ties between positions (and between
// a score and a need) are the common case.
var fuzzValues = [...]float64{math.Inf(-1), math.Inf(1), -1, 0, 1, 2, 2, 3, 5, 8}

// FuzzMaxTreeOps decodes bytes into Set, Fill and FirstAtLeast operations on
// one tree and checks every query answer against naiveFirstAtLeast over a
// plain score slice. Each operation reads an opcode byte and two argument
// bytes; a Fill takes its scores from the bytes that follow.
func FuzzMaxTreeOps(f *testing.F) {
	f.Add(uint8(4), []byte{0, 9, 1, 2, 0, 0, 2, 7, 4, 0, 200, 3, 2, 0, 9, 1, 13, 0, 2, 2, 5})
	f.Add(uint8(3), []byte{1, 13, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 2, 0, 5, 2, 7, 9, 2, 12, 1})
	f.Add(uint8(0), []byte{0, 0, 0, 2, 0, 0, 2, 1, 0, 0, 0, 1, 2, 0, 1, 2, 255, 3})
	f.Add(uint8(1), []byte{0, 0, 8, 2, 2, 8}) // a query from 1 must not see leaf 0
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := fuzzSizes[int(size)%len(fuzzSizes)]
		tree := NewMaxTree(n)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = NegInf
		}
		value := func(b byte) float64 { return fuzzValues[int(b)%len(fuzzValues)] }
		for len(data) >= 3 {
			op, hi, a, b := data[0]%3, int(data[0]/3), int(data[1]), data[2]
			data = data[3:]
			switch op {
			case 0: // Set(i, value(b)); the opcode's high part reaches past leaf 255
				i := (hi*256 + a) % n
				tree.Set(i, value(b))
				scores[i] = value(b)
			case 1: // Fill from the next a bytes: short fills leave NegInf past their end
				k := min(a%(n+3), len(data))
				fill := make([]float64, k)
				for i := range fill {
					fill[i] = value(data[i])
				}
				data = data[k:]
				tree.Fill(fill)
				for i := range scores {
					scores[i] = NegInf
					if i < k {
						scores[i] = fill[i]
					}
				}
			case 2: // FirstAtLeast(from, need), from ∈ [-1, n+1]
				from := a%(n+3) - 1
				need := value(b)
				got, want := tree.FirstAtLeast(from, need), naiveFirstAtLeast(scores, max(from, 0), need)
				if got != want {
					t.Fatalf("n=%d FirstAtLeast(%d, %v) = %d, oracle %d (scores %v)", n, from, need, got, want, scores[:min(n, 16)])
				}
			}
		}
	})
}
