// Package fitindex provides the succinct index structures behind the
// fleet-scale placement and scheduling paths: a segment tree over per-PM
// scores answering "leftmost PM whose score is at least `need`" (the
// first-fit query of bin-packing FFD) in O(log m), and a min-tree answering
// "visit PMs in ascending (value, index) order" (the least-loaded target
// query of the dynamic scheduler) in O(log m) per visited PM.
//
// Both trees are plain float64 point-update structures with no allocation on
// the query path; callers own the mapping between tree positions and PM
// identities.
package fitindex

import "math"

// NegInf marks a position that can never satisfy a query — a PM that is at
// its VM cap, crashed, or otherwise excluded.
var NegInf = math.Inf(-1)

// MaxTree is a segment tree over a fixed-size array of scores supporting
// FirstAtLeast — the indexed first-fit primitive. Scores are arbitrary
// float64s; positions excluded from matching hold NegInf.
type MaxTree struct {
	n    int       // number of leaves (logical size)
	size int       // power-of-two leaf span
	max  []float64 // 1-based heap layout; max[1] is the root
}

// NewMaxTree builds a tree over n positions, all initialised to NegInf.
func NewMaxTree(n int) *MaxTree {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &MaxTree{n: n, size: size, max: make([]float64, 2*size)}
	for i := range t.max {
		t.max[i] = NegInf
	}
	return t
}

// Len returns the number of positions.
func (t *MaxTree) Len() int { return t.n }

// Set updates the score at position i. It returns at once when the leaf
// already held an equal score and stops climbing at the first ancestor whose
// maximum does not change — every node above it depends on the leaf only
// through that maximum, so every query answers as after a walk to the root.
func (t *MaxTree) Set(i int, score float64) {
	p := t.size + i
	old := t.max[p]
	t.max[p] = score
	if old == score {
		return
	}
	for p >>= 1; p >= 1; p >>= 1 {
		m := t.max[2*p+1]
		if l := t.max[2*p]; l >= m {
			m = l
		}
		if t.max[p] == m {
			return
		}
		t.max[p] = m
	}
}

// Get returns the score at position i.
func (t *MaxTree) Get(i int) float64 { return t.max[t.size+i] }

// Fill replaces every position's score in one pass: the leaves are loaded
// from scores (positions past len(scores) become NegInf) and the interior is
// rebuilt bottom-up, costing O(m) instead of the O(m log m) of m point Sets.
// This is the wholesale-rebuild primitive behind parallel rescoring: workers
// compute score slices independently, and one sequential Fill merges them —
// the tree state depends only on the scores, never on the worker count.
func (t *MaxTree) Fill(scores []float64) {
	for i := 0; i < t.size; i++ {
		if i < len(scores) && i < t.n {
			t.max[t.size+i] = scores[i]
		} else {
			t.max[t.size+i] = NegInf
		}
	}
	for p := t.size - 1; p >= 1; p-- {
		l, r := t.max[2*p], t.max[2*p+1]
		if l >= r {
			t.max[p] = l
		} else {
			t.max[p] = r
		}
	}
}

// FirstAtLeast returns the smallest position p ≥ from with score ≥ need, or
// -1 when no such position exists. This is the first-fit query: with scores
// holding per-PM residual headroom, it finds the lowest-indexed PM that can
// admit a demand of `need` without scanning the pool. Neither need nor any
// score may be NaN. From leaf `from` it climbs to the nearest right-sibling
// subtree whose maximum clears need, then descends to its leftmost fit.
func (t *MaxTree) FirstAtLeast(from int, need float64) int {
	from = max(from, 0)
	if from >= t.n || t.max[1] < need {
		return -1
	}
	p := 1
	if from > 0 {
		p = t.size + from
		for t.max[p] < need {
			for ; p&1 == 1; p >>= 1 { // a right child: its right siblings are its parent's
				if p == 1 {
					return -1
				}
			}
			p++
		}
	}
	for p < t.size {
		p <<= 1
		if t.max[p] < need {
			p++
		}
	}
	if i := p - t.size; i < t.n {
		return i
	}
	return -1
}

// MinTree is a segment tree over a fixed-size array of values supporting
// in-order traversal of positions by ascending (value, index) — the
// least-loaded-first iteration of the migration target scan. Positions
// excluded from iteration hold +Inf.
type MinTree struct {
	n    int
	size int
	min  []float64 // min value per node
	arg  []int32   // smallest position achieving it (ties by position)
}

// PosInf marks a position excluded from MinTree iteration.
var PosInf = math.Inf(1)

// NewMinTree builds a tree over n positions, all initialised to PosInf.
func NewMinTree(n int) *MinTree {
	size := 1
	for size < n {
		size <<= 1
	}
	t := &MinTree{n: n, size: size, min: make([]float64, 2*size), arg: make([]int32, 2*size)}
	for i := range t.min {
		t.min[i] = PosInf
	}
	for i := 0; i < size; i++ {
		t.arg[size+i] = int32(i)
	}
	for p := size - 1; p >= 1; p-- {
		t.pull(p)
	}
	return t
}

// Len returns the number of positions.
func (t *MinTree) Len() int { return t.n }

func (t *MinTree) pull(p int) {
	l, r := 2*p, 2*p+1
	// Ties break toward the left child, i.e. the smaller position.
	if t.min[l] <= t.min[r] {
		t.min[p], t.arg[p] = t.min[l], t.arg[l]
	} else {
		t.min[p], t.arg[p] = t.min[r], t.arg[r]
	}
}

// Set updates the value at position i, with the early exits of MaxTree.Set:
// an unchanged leaf returns at once, and the climb stops at the first ancestor
// whose (min, arg) pair does not change.
func (t *MinTree) Set(i int, v float64) {
	p := t.size + i
	old := t.min[p]
	t.min[p] = v
	if old == v {
		return
	}
	for p >>= 1; p >= 1; p >>= 1 {
		m, a := t.min[p], t.arg[p]
		if t.pull(p); t.min[p] == m && t.arg[p] == a {
			return
		}
	}
}

// Add applies a delta to the value at position i (a load accumulator update).
// The position must currently hold a finite value.
func (t *MinTree) Add(i int, delta float64) { t.Set(i, t.min[t.size+i]+delta) }

// Get returns the value at position i.
func (t *MinTree) Get(i int) float64 { return t.min[t.size+i] }

// Fill replaces every position's value in one bottom-up pass — the MinTree
// counterpart of MaxTree.Fill. Positions past len(values) become PosInf.
func (t *MinTree) Fill(values []float64) {
	for i := 0; i < t.size; i++ {
		p := t.size + i
		if i < len(values) && i < t.n {
			t.min[p] = values[i]
		} else {
			t.min[p] = PosInf
		}
		t.arg[p] = int32(i)
	}
	for p := t.size - 1; p >= 1; p-- {
		t.pull(p)
	}
}

// heapNode is one frontier entry of the Ascend walk: a tree node together
// with its subtree minimum.
type heapNode struct {
	val  float64
	pos  int32 // position achieving val (tie-broken to the smallest)
	node int32 // tree node index
}

// AscendScratch is the reusable frontier buffer of MinTree.Ascend.
type AscendScratch []heapNode

// Ascend visits positions in ascending (value, index) order, calling visit
// for each until it returns false or every finite position has been seen.
// scratch, if non-nil, supplies the frontier buffer (letting hot callers
// reuse one allocation); pass nil for a fresh buffer.
//
// The walk expands tree nodes lazily through a binary heap, so visiting the
// first k positions costs O(k log m) — the dynamic scheduler typically stops
// at the first PM that admits the VM.
func (t *MinTree) Ascend(scratch AscendScratch, visit func(pos int, val float64) bool) AscendScratch {
	h := scratch[:0]
	if t.min[1] != PosInf {
		h = append(h, heapNode{val: t.min[1], pos: t.arg[1], node: 1})
	}
	for len(h) > 0 {
		top := h[0]
		// Pop.
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h)
		if int(top.node) >= t.size {
			// Leaf: visit it.
			if top.val == PosInf {
				continue
			}
			if !visit(int(top.pos), top.val) {
				return h
			}
			continue
		}
		// Internal node: expand both children.
		for _, c := range [2]int32{2 * top.node, 2*top.node + 1} {
			if t.min[c] == PosInf {
				continue
			}
			h = append(h, heapNode{val: t.min[c], pos: t.arg[c], node: c})
			siftUp(h)
		}
	}
	return h
}

// less orders frontier entries by (value, position) — the iteration order.
func (a heapNode) less(b heapNode) bool {
	if a.val != b.val {
		return a.val < b.val
	}
	return a.pos < b.pos
}

func siftUp(h []heapNode) {
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []heapNode) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && h[l].less(h[smallest]) {
			smallest = l
		}
		if r < len(h) && h[r].less(h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}
