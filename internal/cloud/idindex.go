package cloud

// IDIndex maps entity ids (VM or PM) to dense positions. Ids inside the dense
// range chosen at construction resolve through one slice read — the common
// case, generated fleets use ids 0..n−1 — and every other id (sparse,
// negative, or registered later outside the range) through a map.
type IDIndex struct {
	dense  []int32 // id → position, -1 = absent
	sparse map[int]int32
}

// NewIDIndex indexes ids[i] → i. The dense range is [0, max id] when the id
// space is not much larger than the set (max id < 4·len), and empty
// otherwise.
func NewIDIndex(ids []int) *IDIndex {
	limit := 0
	for _, id := range ids {
		if id >= limit {
			limit = id + 1
		}
	}
	if limit > 4*len(ids) {
		limit = 0
	}
	ix := &IDIndex{dense: make([]int32, limit), sparse: make(map[int]int32)}
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
	if uint(id) < uint(len(ix.dense)) {
		ix.dense[id] = int32(pos)
		return
	}
	ix.sparse[id] = int32(pos)
}

// Pos returns the position of an id.
func (ix *IDIndex) Pos(id int) (int, bool) {
	if uint(id) < uint(len(ix.dense)) {
		p := ix.dense[id]
		return int(p), p >= 0
	}
	p, ok := ix.sparse[id]
	return int(p), ok
}
