package placesvc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cloud"
	"repro/internal/queuing"
)

// op is one committed mutation in the snapshot op ring: an arrival with its
// chosen PM, or a departure. Entries are immutable once appended.
type op struct {
	kind reqKind // reqArrive or reqDepart
	vm   cloud.VM
	pmID int
	vmID int
}

// view is the fixed-size record a commit publishes: the stats block, the
// mapping table in force, the shared immutable base placement, and a window
// into the op ring — (head, skip, count) locating the ops committed since the
// base, plus the append position at publish time (endChunk, endOff) so a
// later commit can adopt a materialisation of this view as a new base. It is
// all words and pointers: the leader overwrites the service's one cell with
// it, a reader copies the cell into its Snapshot, and those copies are the
// only work either ever does under the cell's lock.
type view struct {
	stats Stats
	table *queuing.MappingTable
	base  *cloud.Placement

	// Ring window, relative to base: replay `count` ops starting at
	// head.ops[skip]. epoch names the base lineage; endChunk/endOff is the
	// ring's append position when this view was published.
	head     *opChunk
	skip     int
	count    int
	epoch    uint64
	endChunk *opChunk
	endOff   int
}

// Snapshot is an immutable, complete view of the service state as of one
// commit.
//
// The commit that publishes a version allocates nothing for it: it overwrites
// the service's publication cell (see view). The *Snapshot is built by the
// first reader to ask for that version — allocated outside the cell's lock,
// filled from the cell under it — and shared with every later and concurrent
// reader of it (see Service.Snapshot), so a service nobody reads never pays
// for snapshots and a reader never waits for commit work: the only critical
// section it shares with the leader is a fixed-size field copy. The service
// never clones on the commit path while readers keep materialising: each
// materialised placement is recycled as the next base (see Service.publish),
// so snapshot upkeep stays O(1) per admission with no clone bursts.
//
// Placement and Overflows materialise the full placement on demand (clone
// base, replay the ring window — O(fleet + count)) and memoise it, so
// concurrent monitoring readers of the same snapshot pay for one
// materialisation. None of this ever touches the live placement, so reads
// never block — and are never blocked by — admission.
type Snapshot struct {
	view
	slots int // fleet slot count: PMs × MaxVMsPerPM, fixed at construction

	once     sync.Once
	mat      *cloud.Placement
	matErr   error
	matReady atomic.Bool // publication edge from reader to leader
}

// Version returns the commit number that published this snapshot.
func (s *Snapshot) Version() uint64 { return s.stats.Version }

// Epoch returns the snapshot-base lineage this snapshot belongs to. The epoch
// advances every time a commit swaps the shared base placement —
// adopting a reader-materialised snapshot or the clone fallback; two
// snapshots with equal epochs share one base and differ only in their ring
// windows.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Stats returns the snapshot's counter block.
func (s *Snapshot) Stats() Stats { return s.stats }

// Slots returns the fleet's total Eq. (17) admission slots — PMs ×
// MaxVMsPerPM, the hard ceiling on how many VMs the mapping table ever lets
// the service host at once.
func (s *Snapshot) Slots() int { return s.slots }

// Headroom returns the free Eq. (17) slot count as of this snapshot:
// Slots() minus the placed VMs, from the stats block alone — reading it never
// replays the op ring. (The per-arrival readers — the shardsvc router and the
// admission OccupancyGate — read Service.Headroom / Service.Occupancy, which
// need no snapshot at all.)
func (s *Snapshot) Headroom() int { return s.slots - s.stats.VMs }

// Occupancy returns the fleet slot occupancy VMs/Slots in [0, 1] — the
// denominator-normalised complement of Headroom, in the units the admission
// OccupancyGate thresholds on. NaN when the service has no slots (an empty
// PM pool), which the gate treats as "no reading".
func (s *Snapshot) Occupancy() float64 { return occupancy(s.stats.VMs, s.slots) }

func occupancy(vms, slots int) float64 {
	if slots <= 0 {
		return math.NaN()
	}
	return float64(vms) / float64(slots)
}

// Table returns the mapping table in force at this snapshot.
func (s *Snapshot) Table() *queuing.MappingTable { return s.table }

// Placement materialises the placement as of this snapshot: clone the shared
// base, replay the ring window. The result is memoised and shared — callers
// must treat it as read-only (a later commit may adopt it as the next base).
func (s *Snapshot) Placement() (*cloud.Placement, error) {
	s.once.Do(func() {
		p := s.base.Clone()
		c, idx := s.head, s.skip
		for i := 0; i < s.count; i++ {
			if idx == opChunkSize {
				c, idx = c.next, 0
			}
			o := c.ops[idx]
			idx++
			switch o.kind {
			case reqArrive:
				if err := p.Assign(o.vm, o.pmID); err != nil {
					s.matErr = fmt.Errorf("placesvc: replaying op ring: %w", err)
					s.matReady.Store(true)
					return
				}
			case reqDepart:
				if _, err := p.Remove(o.vmID); err != nil {
					s.matErr = fmt.Errorf("placesvc: replaying op ring: %w", err)
					s.matReady.Store(true)
					return
				}
			}
		}
		s.mat = p
		s.matReady.Store(true)
	})
	return s.mat, s.matErr
}

// Overflows audits the snapshot against its own table: PMs whose host set no
// longer satisfies Eq. (17) — possible after a refresh tightened the mapping.
func (s *Snapshot) Overflows() ([]cloud.Violation, error) {
	p, err := s.Placement()
	if err != nil {
		return nil, err
	}
	return cloud.CheckReserved(p, s.table), nil
}

// rebuildMinOps is the ring-window length below which a commit never
// swaps the base — tiny fleets would otherwise rebase every commit.
const rebuildMinOps = 64

// cloneFallbackFactor scales the clone-fallback threshold: the leader only
// pays a Placement.Clone — O(PMs + VMs), so the threshold counts both — when
// the window has outgrown cloneFallbackFactor·max(adoption threshold, PMs/2)
// ops and no reader materialisation is available to adopt (nobody is reading
// snapshots, so nobody pays replay either — the clone just bounds ring
// memory: an unread service holds at most that many 64-byte ops plus one
// commit's, ~128 KB per 1000 PMs, and clones once per that many ops).
const cloneFallbackFactor = 4

// publish makes the committed state readable (after every commit, and once
// at construction) without allocating: it overwrites the publication cell.
// When the ring window outgrows max(rebuildMinOps, VMs/2) the leader prefers
// *adopting* the placement a reader materialised from the newest snapshot
// handed out as the new base — O(1), no copying, sound because the
// materialisation is exactly base+window at that snapshot's position and its
// epoch proves the lineage. The O(fleet) live-placement clone survives only
// as a fallback at cloneFallbackFactor× the threshold, for services nobody
// reads. Old snapshots keep their chunks alive; nothing is truncated.
func (s *Service) publish() {
	live := s.online.Placement()
	s.stats.Version = s.stats.Commits
	s.stats.VMs = live.NumVMs()
	s.stats.UsedPMs = live.NumUsedPMs()
	prev := s.handed.Load()
	if limit := max(rebuildMinOps, live.NumVMs()/2); s.ring.count > limit {
		if prev != nil && prev.epoch == s.ring.epoch &&
			prev.count > 0 && prev.matReady.Load() && prev.matErr == nil {
			s.base = prev.mat
			s.ring.adopt(prev)
			if s.metrics != nil {
				s.metrics.adoptions.Inc()
			}
		}
		if s.ring.count > cloneFallbackFactor*max(limit, s.pms/2) {
			s.base = live.Clone()
			s.ring.rebase()
			if s.metrics != nil {
				s.metrics.rebuilds.Inc()
			}
		}
	}
	table, ring := s.online.Table(), s.ring
	s.cellMu.Lock()
	c := &s.cell // field by field: a view literal would be built aside, then copied in
	c.stats, c.table, c.base = s.stats, table, s.base
	c.head, c.skip, c.count, c.epoch = ring.head, ring.skip, ring.count, ring.epoch
	c.endChunk, c.endOff = ring.tail, ring.tail.n
	s.version.Store(s.stats.Version)
	if prev != nil && prev.epoch != s.ring.epoch {
		// A snapshot of an earlier epoch can never be adopted, and no reader
		// is handed it again now that its version is behind: let go of it,
		// or a service read once would keep that snapshot's base and every
		// chunk appended since reachable. (If a reader has replaced it
		// meanwhile, the next commit looks at the replacement.)
		s.handed.CompareAndSwap(prev, nil)
	}
	s.cellMu.Unlock()
	s.vms.Store(int64(s.stats.VMs))
	if m := s.metrics; m != nil {
		m.version.Set(float64(s.stats.Version))
		m.vms.Set(float64(s.stats.VMs))
		m.usedPMs.Set(float64(s.stats.UsedPMs))
	}
}

// Snapshot returns the immutable state published by the latest commit. It
// never waits for commit work. Readers of a version already handed out share
// that object through one atomic load and a version check. The first reader
// of a new version allocates the object before taking the cell's lock, and
// under it only copies the cell in and installs the pointer; a concurrent
// first reader that finds the version installed returns that object and
// drops its own, so one version is one object and one materialisation. A
// client that calls Snapshot after its request returned sees that commit: the
// leader publishes before it answers.
func (s *Service) Snapshot() *Snapshot {
	if cur := s.handed.Load(); cur != nil && cur.stats.Version == s.version.Load() {
		return cur
	}
	snap := &Snapshot{slots: s.slots}
	s.cellMu.Lock()
	if cur := s.handed.Load(); cur != nil && cur.stats.Version == s.cell.stats.Version {
		snap = cur
	} else {
		snap.view = s.cell
		s.handed.Store(snap)
	}
	s.cellMu.Unlock()
	return snap
}
