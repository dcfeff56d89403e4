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

// Snapshot is an immutable view of the service state as of one commit.
//
// Publication is O(1) and allocation-light: the snapshot holds the stats
// block, the current mapping table, a shared immutable base placement, and a
// window into the lock-free op ring — (head, skip, count) locating the ops
// committed since the base, plus the append position at publish time
// (endChunk, endOff) so a later commit can adopt this snapshot's
// materialisation as a new base. The service never clones on the commit
// path while readers keep materialising: each materialised placement is
// recycled as the next base (see Service.publish), so snapshot upkeep stays
// O(1) per admission with no clone bursts.
//
// Placement and Overflows materialise the full placement on demand (clone
// base, replay the ring window — O(fleet + count)) and memoise it, so
// concurrent monitoring readers of the same snapshot pay for one
// materialisation. None of this ever touches the live placement, so reads
// never block — and are never blocked by — admission.
type Snapshot struct {
	stats Stats
	table *queuing.MappingTable
	base  *cloud.Placement
	slots int // fleet slot count: PMs × MaxVMsPerPM, fixed at construction

	// Ring window, relative to base: replay `count` ops starting at
	// head.ops[skip]. epoch names the base lineage; endChunk/endOff is the
	// ring's append position when this snapshot was published.
	head     *opChunk
	skip     int
	count    int
	epoch    uint64
	endChunk *opChunk
	endOff   int

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
// Slots() minus the placed VMs. It is the O(1) load summary the shardsvc
// router's power-of-d choice and the admission OccupancyGate read instead of
// recomputing occupancy from a materialised placement — like Placement and
// Overflows it is derived once per snapshot, but from the published stats
// block alone, so reading it never replays the op ring.
func (s *Snapshot) Headroom() int { return s.slots - s.stats.VMs }

// Occupancy returns the fleet slot occupancy VMs/Slots in [0, 1] — the
// denominator-normalised complement of Headroom, in the units the admission
// OccupancyGate thresholds on. NaN when the service has no slots (an empty
// PM pool), which the gate treats as "no reading".
func (s *Snapshot) Occupancy() float64 {
	if s.slots <= 0 {
		return math.NaN()
	}
	return float64(s.stats.VMs) / float64(s.slots)
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

// publish refreshes the service's snapshot cell after a commit (and once at
// construction). When the ring window outgrows max(rebuildMinOps, VMs/2)
// the leader prefers *adopting* the latest snapshot's reader-materialised
// placement as the new base — O(1), no copying, sound because the
// materialisation is exactly base+window at that snapshot's position and its
// epoch proves the lineage. The O(fleet) live-placement clone survives only
// as a fallback at cloneFallbackFactor× the threshold, for services nobody
// reads. Old snapshots keep their chunks alive; nothing is truncated.
func (s *Service) publish() {
	live := s.online.Placement()
	s.stats.Version = s.stats.Commits
	s.stats.VMs = live.NumVMs()
	s.stats.UsedPMs = live.NumUsedPMs()
	if limit := max(rebuildMinOps, live.NumVMs()/2); s.ring.count > limit {
		if prev := s.snap.Load(); prev != nil && prev.epoch == s.ring.epoch &&
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
	snap := &Snapshot{
		stats:    s.stats,
		table:    s.online.Table(),
		base:     s.base,
		slots:    s.slots,
		head:     s.ring.head,
		skip:     s.ring.skip,
		count:    s.ring.count,
		epoch:    s.ring.epoch,
		endChunk: s.ring.tail,
		endOff:   s.ring.tail.n,
	}
	s.snap.Store(snap)
	if m := s.metrics; m != nil {
		m.version.Set(float64(s.stats.Version))
		m.vms.Set(float64(s.stats.VMs))
		m.usedPMs.Set(float64(s.stats.UsedPMs))
	}
}
