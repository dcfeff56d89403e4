package queuing

import (
	"sync"
	"sync/atomic"
)

// tableKey identifies one mapping-table cohort. Tables are pure functions of
// the key — MapCal is deterministic — so equal keys always yield equal tables
// and a cached *MappingTable can be shared freely (tables are immutable after
// construction; Online swaps whole table pointers on refresh, never mutates).
type tableKey struct {
	d         int
	pOn, pOff float64
	rho       float64
}

// tableEntry is one in-flight or completed build. The leader closes done
// after storing table; waiters block on done instead of re-solving.
type tableEntry struct {
	done  chan struct{}
	table *MappingTable
}

// TableCache memoises whole mapping tables keyed by (d, p_on, p_off, ρ) with
// singleflight semantics: when several goroutines request the same cohort
// concurrently, exactly one performs the d MapCal solves and the rest wait
// for its result: an admission service refreshing its table, a controller
// re-packing the fleet, and an experiment sweep constructing the same cohort
// all share one solve.
//
// Failed builds are not cached — the failing caller gets the error and the
// next request retries. The cache is safe for concurrent use.
type TableCache struct {
	mu sync.Mutex
	m  map[tableKey]*tableEntry

	solves atomic.Uint64 // builds actually performed (including failed ones)
	hits   atomic.Uint64 // requests served without building (cached or joined)
}

// tableCacheMaxEntries bounds the cache. Heterogeneous churn drifts the
// rounded (p_on, p_off) a little on every refresh, so an online service can
// generate an unbounded stream of distinct cohorts; when the bound is hit the
// cache is cleared wholesale (entries are cheap to rebuild, and a full clear
// avoids bookkeeping an eviction order on the hot path).
const tableCacheMaxEntries = 1024

// NewTableCache returns an empty cache.
func NewTableCache() *TableCache {
	return &TableCache{m: make(map[tableKey]*tableEntry)}
}

// sharedTables is the process-wide default cache, handed out by SharedTables.
var sharedTables = NewTableCache()

// SharedTables returns the process-wide table cache. Independently
// constructed consumers — core.Online instances, placesvc services,
// experiment sweeps — default to it so identical cohorts solve once per
// process.
func SharedTables() *TableCache { return sharedTables }

// Solves returns the number of table builds the cache actually ran.
func (c *TableCache) Solves() uint64 { return c.solves.Load() }

// Hits returns the number of requests served without a build.
func (c *TableCache) Hits() uint64 { return c.hits.Load() }

// Len returns the number of completed or in-flight entries.
func (c *TableCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Get returns the table for the key, building it with build on a miss. Only
// one build per key runs at a time; concurrent callers for the same key wait
// and share the leader's table. A failed build is forgotten so later calls
// can retry.
func (c *TableCache) Get(d int, pOn, pOff, rho float64, build func() (*MappingTable, error)) (*MappingTable, error) {
	key := tableKey{d: d, pOn: pOn, pOff: pOff, rho: rho}
	c.mu.Lock()
	if e, ok := c.m[key]; ok {
		c.mu.Unlock()
		<-e.done
		if e.table != nil {
			c.hits.Add(1)
			return e.table, nil
		}
		// The leader failed; fall through to retry as a new leader.
		return c.Get(d, pOn, pOff, rho, build)
	}
	if len(c.m) >= tableCacheMaxEntries {
		c.m = make(map[tableKey]*tableEntry)
	}
	e := &tableEntry{done: make(chan struct{})}
	c.m[key] = e
	c.mu.Unlock()

	c.solves.Add(1)
	table, err := build()
	if err != nil {
		c.mu.Lock()
		// Only forget our own entry: the map may have been cleared and the
		// slot re-claimed by a newer leader while we were building.
		if c.m[key] == e {
			delete(c.m, key)
		}
		c.mu.Unlock()
		close(e.done)
		return nil, err
	}
	e.table = table
	close(e.done)
	return table, nil
}

// NewMappingTable is Get with the standard sequential builder — the
// drop-in cached replacement for queuing.NewMappingTable.
func (c *TableCache) NewMappingTable(d int, pOn, pOff, rho float64) (*MappingTable, error) {
	return c.Get(d, pOn, pOff, rho, func() (*MappingTable, error) {
		return NewMappingTable(d, pOn, pOff, rho)
	})
}
