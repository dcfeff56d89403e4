package cloud

// IDIndex maps entity ids (VM or PM) to dense positions. Ids inside the dense
// range chosen at construction resolve through one slice read — the common
// case, generated fleets use ids 0..n−1 and a federation shard a contiguous
// slice [lo, hi) of them — and every other id (sparse, or registered later
// outside the range) through a map.
type IDIndex struct {
	lo     int     // id of dense[0]
	dense  []int32 // id − lo → position, -1 = absent
	sparse map[int]int32
}

// NewIDIndex indexes ids[i] → i. The dense range is [min id, max id] when
// that span is not much larger than the set (span ≤ 4·len), and empty
// otherwise.
func NewIDIndex(ids []int) *IDIndex {
	lo, span := 0, 0
	if len(ids) > 0 {
		hi := ids[0]
		lo = hi
		for _, id := range ids[1:] {
			lo, hi = min(lo, id), max(hi, id)
		}
		// hi − lo + 1 wraps to ≤ 0 when the ids span more than an int.
		if span = hi - lo + 1; span <= 0 || span > 4*len(ids) {
			lo, span = 0, 0
		}
	}
	ix := &IDIndex{lo: lo, dense: make([]int32, span), sparse: make(map[int]int32)}
	for i := range ix.dense {
		ix.dense[i] = -1
	}
	for i, id := range ids {
		ix.Add(id, i)
	}
	return ix
}

// Add maps id → pos, replacing any earlier mapping of the id.
func (ix *IDIndex) Add(id, pos int) {
	if i := uint(id - ix.lo); i < uint(len(ix.dense)) {
		ix.dense[i] = int32(pos)
		return
	}
	ix.sparse[id] = int32(pos)
}

// Pos returns the position of an id.
func (ix *IDIndex) Pos(id int) (int, bool) {
	if i := uint(id - ix.lo); i < uint(len(ix.dense)) {
		p := ix.dense[i]
		return int(p), p >= 0
	}
	p, ok := ix.sparse[id]
	return int(p), ok
}
