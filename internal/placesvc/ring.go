package placesvc

// The snapshot op ring: a single-writer, chunked append-only log of committed
// mutations that readers replay without locks. It replaces the grow-append
// journal + commit-path re-clone of earlier versions, whose two failure modes
// under load were (a) append-time reallocation bursts copying the whole
// journal and (b) an O(fleet) Placement.Clone inside the commit path every
// time the journal outgrew the fleet.
//
// Concurrency model:
//
//   - The current leader is the only writer (the role hand-off orders
//     successive leaders). It appends ops into fixed-size chunks linked
//     through plain `next` pointers and never mutates an op slot twice.
//   - Readers never touch the ring directly: they copy a window (head, skip,
//     count) out of the service's publication cell. The cell's lock is the
//     release/acquire edge that makes every op the window references
//     visible — no per-op atomics, no reader-side retries.
//   - Reclamation is garbage collection: a chunk lives exactly as long as
//     some snapshot (or the ring head) still references it. Nothing is ever
//     truncated in place, so a years-old snapshot stays replayable.
//
// Epochs: every base swap — adopting a reader-materialised placement or the
// clone fallback — advances the ring epoch. A snapshot's epoch names the base
// lineage its (head, skip, count) triple is relative to; a commit only
// adopts a materialisation whose epoch matches the current one, which is what
// makes adoption sound without ever comparing placements.
const opChunkSize = 256

// opChunk is one fixed-size block of the log. ops[0:n] are committed; the
// writer fills slots left to right and links a fresh chunk when full.
type opChunk struct {
	ops  [opChunkSize]op
	n    int // writer-owned; readers are bounded by Snapshot.count instead
	next *opChunk
}

// opRing is the writer's view of the log: the base position (head/skip), the
// number of ops since the base (count), and the append position (tail).
type opRing struct {
	head  *opChunk // chunk holding the first op after the base
	skip  int      // ops in head that precede the base position
	count int      // ops between base and tail — the replay length
	tail  *opChunk // append target
	epoch uint64   // base-lineage counter; bumps on every base swap
}

func newOpRing() *opRing {
	c := &opChunk{}
	return &opRing{head: c, tail: c}
}

// append records one committed op. Writer-only.
func (r *opRing) append(o op) {
	t := r.tail
	if t.n == opChunkSize {
		nc := &opChunk{}
		t.next = nc
		r.tail = nc
		t = nc
	}
	t.ops[t.n] = o
	t.n++
	r.count++
}

// adopt advances the base past the ops a published snapshot has already
// materialised: the snapshot's memoised placement becomes the new base (the
// caller installs it) and the ring's replay window shrinks to the ops
// appended after that snapshot. Writer-only; the snapshot must belong to the
// current epoch.
func (r *opRing) adopt(s *Snapshot) {
	r.head = s.endChunk
	r.skip = s.endOff
	r.count -= s.count
	r.epoch++
}

// rebase resets the replay window to empty at the current append position —
// the clone-fallback path, used when no reader materialisation is available
// to adopt and the window must stop growing. Writer-only.
func (r *opRing) rebase() {
	r.head = r.tail
	r.skip = r.tail.n
	r.count = 0
	r.epoch++
}
