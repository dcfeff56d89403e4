// Package shardsvc federates the placesvc admission plane: it partitions the
// PM pool into MaxShards independent placesvc.Service shards — each with its
// own submission queue and leader, op-ring snapshot pipeline and fit index —
// and fronts them with a power-of-d-choices router reading the shards'
// O(1) headroom counters. One service's throughput ceiling (one commit at a
// time, one Algorithm-2 ordering pass each) becomes MaxShards ceilings; the price
// is that first-fit runs per shard, so placements differ from the single
// fleet-wide service once MaxShards > 1.
//
// Determinism contracts, extending the placesvc family (MaxBatch = 1 ≡
// sequential Online; Workers = N bit-identical):
//
//   - MaxShards = 1 is bit-identical to a single placesvc.Service with the
//     same config: one shard owns the whole pool in given order, the router
//     degenerates to the constant shard 0, forwarding never engages, and
//     per-shard admission compiles the same pipeline the service would.
//   - Routing replays: with a fixed Seed, shard count and D, a sequential
//     submission stream is routed to the identical shard sequence on every
//     run — the router draws from a counter-keyed splitmix64 hash, never
//     from global RNG or the clock.
//
// The background rebalancer (see rebalance.go) migrates VMs from the most- to
// the least-occupied shard when headroom skews past a hysteresis band,
// reusing the simulator's migration trace accounting.
package shardsvc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/placesvc"
	"repro/internal/telemetry"
)

// Config assembles a Federation. Strategy/PMs/POn/POff/MaxBatch/Workers/
// MaxWait pass through to every shard's placesvc.Config; the remaining
// fields shape the federation itself.
type Config struct {
	// Strategy is the per-shard admission policy (Eq. 17 mapping table).
	Strategy core.QueuingFFD
	// PMs is the full pool. Shard i owns a contiguous range of this slice in
	// given order, cut by core.ShardBounds — the same house partitioning rule
	// the simulator's sharded stepping uses. The slice is never reordered:
	// position order defines first-fit order inside each shard, which is what
	// makes the MaxShards = 1 federation bit-identical to a single service.
	PMs []cloud.PM
	// POn, POff seed each shard's initial mapping table.
	POn, POff float64
	// MaxShards is the number of independent shards (default 1; clamped to
	// len(PMs) so no shard is empty).
	MaxShards int
	// D is the router's choice count: each arrival samples D shards (with
	// replacement) from the counter-keyed hash and joins the one with the
	// most headroom. Default 2 — the classic power-of-two-choices
	// sweet spot; D ≥ MaxShards degenerates to least-loaded over all shards.
	D int
	// Seed keys the router's hash. Runs with equal Seed, MaxShards and D
	// route a sequential stream identically.
	Seed uint64
	// MaxBatch, Workers, MaxWait configure each shard's group commit exactly
	// as in placesvc.Config (defaults likewise).
	MaxBatch int
	Workers  int
	MaxWait  time.Duration
	// Registry receives the federation's shardsvc_* metrics (per-shard
	// routing counters and headroom/queue-depth gauges, forward and
	// rebalance counters). Shards run with a nil registry — their gauges
	// would collide on one family — so fleet counters come from Stats().
	Registry *telemetry.Registry
	// Obs is shared by every shard (the plane's recorder and windows are
	// mutex-protected): rejection/shed storms and latency windows aggregate
	// fleet-wide. The rebalancer's skew detections feed its storm:skew
	// flight trigger.
	Obs *obs.Plane
	// Admission places the admission layer by its Scope: "shard" (default)
	// hands the config to every shard, compiling one independent pipeline
	// per shard; "global" compiles a single pipeline at the federation
	// front door, thresholding on fleet-wide occupancy, and the shards run
	// without one.
	Admission *admission.Config
	// Tracer receives one telemetry.MigrationTraceEvent per rebalance move
	// (Planned = true, Interval = rebalance round). Nil disables tracing.
	Tracer telemetry.Tracer
	// Rebalance shapes the background rebalancer; the zero value disables
	// the ticker (RebalanceOnce still works on demand).
	Rebalance RebalanceConfig
}

// Federation is the sharded admission front-end. All mutation methods are
// safe for concurrent use; snapshot reads never block any commit.
type Federation struct {
	shards []*placesvc.Service
	bounds []int // ShardBounds over Config.PMs: shard i owns PMs[bounds[i]:bounds[i+1]]
	router *router

	// Owner index: which shard hosts each VM. The router decides where an
	// arrival lands, so departures need the map back. Guarded by mu.
	mu    sync.Mutex
	owner map[int]int

	// Global admission (Scope "global" only); nil otherwise. admMu
	// serialises Decide, matching the placesvc contract.
	admMu  sync.Mutex
	policy *admission.Pipeline
	admCfg *admission.Config

	obs     *obs.Plane
	tracer  telemetry.Tracer
	metrics *fedMetrics

	reb       RebalanceConfig
	rebMu     sync.Mutex  // serialises RebalanceOnce rounds
	rebRound  int         // rounds that observed skew (trace Interval)
	lastMoved map[int]int // vmID → round it last moved (oscillation guard)

	closeOnce sync.Once
	closeErr  error
	stop      chan struct{}
	wg        sync.WaitGroup
}

func (c Config) withDefaults() (Config, error) {
	if len(c.PMs) == 0 {
		return c, fmt.Errorf("shardsvc: empty PM pool")
	}
	if c.MaxShards == 0 {
		c.MaxShards = 1
	}
	if c.MaxShards < 1 {
		return c, fmt.Errorf("shardsvc: MaxShards must be ≥ 1, got %d", c.MaxShards)
	}
	if c.MaxShards > len(c.PMs) {
		c.MaxShards = len(c.PMs)
	}
	if c.D == 0 {
		c.D = 2
	}
	if c.D < 1 {
		return c, fmt.Errorf("shardsvc: D must be ≥ 1, got %d", c.D)
	}
	if err := c.Rebalance.validate(); err != nil {
		return c, err
	}
	return c, nil
}

// New partitions the pool, builds one placesvc.Service per shard, and wires
// the router. Close releases every shard (and the rebalance ticker).
func New(cfg Config) (*Federation, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	scope := admission.ScopeShard
	if cfg.Admission != nil {
		if err := cfg.Admission.Validate(); err != nil {
			return nil, err
		}
		scope = cfg.Admission.EffectiveScope()
	}

	bounds := core.ShardBounds(len(cfg.PMs), cfg.MaxShards)
	n := len(bounds) - 1
	f := &Federation{
		shards:    make([]*placesvc.Service, n),
		bounds:    bounds,
		router:    newRouter(n, cfg.D, cfg.Seed),
		owner:     make(map[int]int),
		obs:       cfg.Obs,
		tracer:    cfg.Tracer,
		metrics:   newFedMetrics(cfg.Registry, n),
		reb:       cfg.Rebalance.withDefaults(),
		lastMoved: make(map[int]int),
		stop:      make(chan struct{}),
	}
	var shardAdm *admission.Config
	if cfg.Admission != nil {
		if scope == admission.ScopeGlobal {
			if f.policy, err = cfg.Admission.Compile(); err != nil {
				return nil, err
			}
			f.admCfg = cfg.Admission
		} else {
			shardAdm = cfg.Admission
		}
	}
	for i := 0; i < n; i++ {
		svc, err := placesvc.New(placesvc.Config{
			Strategy:  cfg.Strategy,
			PMs:       cfg.PMs[bounds[i]:bounds[i+1]],
			POn:       cfg.POn,
			POff:      cfg.POff,
			MaxBatch:  cfg.MaxBatch,
			Workers:   cfg.Workers,
			MaxWait:   cfg.MaxWait,
			Obs:       cfg.Obs,
			Admission: shardAdm,
		})
		if err != nil {
			for j := 0; j < i; j++ {
				f.shards[j].Close()
			}
			return nil, fmt.Errorf("shardsvc: building shard %d: %w", i, err)
		}
		f.shards[i] = svc
	}
	if f.reb.Interval > 0 {
		f.wg.Add(1)
		go f.rebalanceLoop()
	}
	return f, nil
}

// NumShards returns the shard count.
func (f *Federation) NumShards() int { return len(f.shards) }

// Shard returns shard i's service — for monitoring and tests; callers must
// not Close it.
func (f *Federation) Shard(i int) *placesvc.Service { return f.shards[i] }

// ShardSnapshots returns every shard's latest snapshot, index-aligned with
// Shard. The set is not atomic across shards — each is the newest published
// by its own shard.
func (f *Federation) ShardSnapshots() []*placesvc.Snapshot {
	out := make([]*placesvc.Snapshot, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.Snapshot()
	}
	return out
}

// Arrive routes one VM to a power-of-D-chosen shard and places it there,
// forwarding to the remaining shards (most headroom first) if the chosen
// shard is out of capacity. Equivalent to ArriveClass with a background
// context and ClassStandard.
func (f *Federation) Arrive(vm cloud.VM) (int, error) {
	return f.ArriveClass(context.Background(), vm, admission.ClassStandard)
}

// ArriveCtx is Arrive honoring ctx while queued, with the placesvc
// cancellation contract per shard.
func (f *Federation) ArriveCtx(ctx context.Context, vm cloud.VM) (int, error) {
	return f.ArriveClass(ctx, vm, admission.ClassStandard)
}

// ArriveClass is ArriveCtx with an explicit priority class. Under a global
// admission config the policy decides here, on fleet-wide occupancy, before
// any shard sees the request; under per-shard scope the routed shard's own
// pipeline decides.
func (f *Federation) ArriveClass(ctx context.Context, vm cloud.VM, class admission.Class) (int, error) {
	if f.policy != nil {
		if err := f.admit(1, class); err != nil {
			return 0, err
		}
		var cancel context.CancelFunc
		if ctx, cancel = f.deadlineCtx(ctx, class); cancel != nil {
			defer cancel()
		}
	}
	shard := f.router.pick(f.headroom)
	f.noteRouted(shard)
	pmID, err := f.shards[shard].ArriveClass(ctx, vm, class)
	if err == nil {
		f.setOwner(vm.ID, shard)
		return pmID, err
	}
	if !errors.Is(err, cloud.ErrNoCapacity) || len(f.shards) == 1 {
		return pmID, err
	}
	// The chosen shard is full; forward to the others, most headroom first.
	for _, next := range f.byHeadroom(shard) {
		f.metrics.forwards.Inc()
		pmID, ferr := f.shards[next].ArriveClass(ctx, vm, class)
		if ferr == nil {
			f.setOwner(vm.ID, next)
			return pmID, nil
		}
		err = ferr
		if !errors.Is(err, cloud.ErrNoCapacity) {
			return pmID, err
		}
	}
	f.metrics.rejections.Inc()
	return 0, err
}

// ArriveBatch routes a whole batch to the power-of-D shard, then forwards the
// VMs it could not place to the remaining shards (most headroom first) as
// sub-batches. VMs no shard can admit come back in unplaced; any other
// failure aborts forwarding, and unplaced then holds the full still-unplaced
// remainder — every VM of vms that landed on no shard, audited against the
// failing shard's snapshot (a mid-apply abort under-reports its own
// unplaced) with the owner index reconciled along the way — so a caller may
// retry exactly the returned VMs without double-placing the rest.
func (f *Federation) ArriveBatch(vms []cloud.VM) (unplaced []cloud.VM, err error) {
	return f.ArriveBatchClass(context.Background(), vms, admission.ClassStandard)
}

// ArriveBatchCtx is ArriveBatch honoring ctx while queued. A global admission
// policy charges the whole batch at once (cost = len(vms)), the same contract
// as placesvc.ArriveBatchCtx.
func (f *Federation) ArriveBatchCtx(ctx context.Context, vms []cloud.VM) (unplaced []cloud.VM, err error) {
	return f.ArriveBatchClass(ctx, vms, admission.ClassStandard)
}

// ArriveBatchClass is ArriveBatchCtx with an explicit priority class.
func (f *Federation) ArriveBatchClass(ctx context.Context, vms []cloud.VM, class admission.Class) (unplaced []cloud.VM, err error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	if len(vms) == 0 {
		return nil, nil
	}
	if f.policy != nil {
		if err := f.admit(len(vms), class); err != nil {
			return nil, err
		}
		var cancel context.CancelFunc
		if ctx, cancel = f.deadlineCtx(ctx, class); cancel != nil {
			defer cancel()
		}
	}
	shard := f.router.pick(f.headroom)
	f.noteRouted(shard)
	unplaced, err = f.shards[shard].ArriveBatchClass(ctx, vms, class)
	if err != nil {
		return f.unplacedAfterAbort(vms, shard), err
	}
	f.ownBatch(vms, unplaced, shard)
	if len(unplaced) == 0 || len(f.shards) == 1 {
		return unplaced, nil
	}
	for _, next := range f.byHeadroom(shard) {
		f.metrics.forwards.Inc()
		sub := unplaced
		rest, ferr := f.shards[next].ArriveBatchClass(ctx, sub, class)
		if ferr != nil {
			// sub is already the remainder after every earlier shard, so the
			// audited subset of it that missed `next` too is the batch-wide
			// still-unplaced set.
			return f.unplacedAfterAbort(sub, next), ferr
		}
		f.ownBatch(sub, rest, next)
		unplaced = rest
		if len(unplaced) == 0 {
			return nil, nil
		}
	}
	f.metrics.rejections.Add(uint64(len(unplaced)))
	return unplaced, nil
}

// Depart removes a VM from the shard hosting it. Unknown ids are forwarded
// to shard 0, whose "not placed" error matches the single-service one.
func (f *Federation) Depart(vmID int) error {
	return f.DepartCtx(context.Background(), vmID)
}

// DepartCtx is Depart honoring ctx while queued. Departures never run
// through admission, matching placesvc.
func (f *Federation) DepartCtx(ctx context.Context, vmID int) error {
	shard := f.ownerOf(vmID)
	err := f.shards[shard].DepartCtx(ctx, vmID)
	if err == nil {
		f.clearOwner(vmID)
	}
	return err
}

// DepartBatch groups the ids by owning shard — each group keeps the input
// order, unknown ids joining shard 0's group — and issues one sub-batch per
// shard in shard order. missing concatenates the per-shard results in shard
// order; with one shard the call passes through verbatim.
func (f *Federation) DepartBatch(vmIDs []int) (missing []int, err error) {
	if len(vmIDs) == 0 {
		return nil, nil
	}
	groups := make([][]int, len(f.shards))
	f.mu.Lock()
	for _, id := range vmIDs {
		s := f.owner[id] // unknown → 0
		groups[s] = append(groups[s], id)
	}
	f.mu.Unlock()
	for s, ids := range groups {
		if len(ids) == 0 {
			continue
		}
		m, derr := f.shards[s].DepartBatch(ids)
		if derr != nil {
			return missing, derr
		}
		missing = append(missing, m...)
		gone := make(map[int]bool, len(m))
		for _, id := range m {
			gone[id] = true
		}
		f.mu.Lock()
		for _, id := range ids {
			if !gone[id] {
				delete(f.owner, id)
			}
		}
		f.mu.Unlock()
	}
	return missing, nil
}

// RefreshTable recomputes every shard's mapping table (shard order; first
// error wins). Shards share the strategy's table cache, so cohorts common
// across shards solve once.
func (f *Federation) RefreshTable() error {
	for i, s := range f.shards {
		if err := s.RefreshTable(); err != nil {
			return fmt.Errorf("shardsvc: refreshing shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats sums every shard's counter block into one placesvc.Stats. Version is
// the sum of per-shard commit counts — monotone, but not a global commit
// sequence.
func (f *Federation) Stats() placesvc.Stats {
	var total placesvc.Stats
	for _, s := range f.shards {
		st := s.Stats()
		total.Version += st.Version
		total.VMs += st.VMs
		total.UsedPMs += st.UsedPMs
		total.Placed += st.Placed
		total.Rejected += st.Rejected
		total.Departed += st.Departed
		total.Requests += st.Requests
		total.Commits += st.Commits
		total.Refreshes += st.Refreshes
	}
	return total
}

// Headroom sums the shards' free Eq. (17) slots.
func (f *Federation) Headroom() int {
	total := 0
	for _, s := range f.shards {
		total += s.Headroom()
	}
	return total
}

// QueueDepth sums the shards' submission-queue depths.
func (f *Federation) QueueDepth() int {
	total := 0
	for _, s := range f.shards {
		total += s.QueueDepth()
	}
	return total
}

// Close stops the rebalancer and every shard. Safe to call twice.
func (f *Federation) Close() error {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.wg.Wait()
		for _, s := range f.shards {
			if err := s.Close(); err != nil && f.closeErr == nil {
				f.closeErr = err
			}
		}
	})
	return f.closeErr
}

// admit runs one global-policy decision on fleet-wide occupancy, mirroring
// the placesvc admit contract (serialised Decide, shed metrics, obs storm
// feed).
func (f *Federation) admit(cost int, class admission.Class) error {
	slots, free := 0, 0
	for _, s := range f.shards {
		slots += s.Slots()
		free += s.Headroom()
	}
	occ := float64(slots-free) / float64(slots) // slots ≥ MaxShards ≥ 1
	f.admMu.Lock()
	d := f.policy.Decide(admission.Request{
		TimeNs:    time.Now().UnixNano(),
		Cost:      cost,
		Class:     class,
		Occupancy: occ,
	})
	f.admMu.Unlock()
	if d.Admit {
		return nil
	}
	f.metrics.noteShed(class, cost)
	if o := f.obs; o != nil {
		o.ObserveSheds(cost)
	}
	return fmt.Errorf("shardsvc: %s arrival shed by %s policy: %w", class, d.Reason, admission.ErrShed)
}

// deadlineCtx applies the global config's default class deadline when ctx
// carries none.
func (f *Federation) deadlineCtx(ctx context.Context, class admission.Class) (context.Context, context.CancelFunc) {
	if f.admCfg == nil {
		return ctx, nil
	}
	d := f.admCfg.Deadline(class)
	if d <= 0 {
		return ctx, nil
	}
	if _, has := ctx.Deadline(); has {
		return ctx, nil
	}
	return context.WithTimeout(ctx, d)
}

// headroom reads shard i's headroom as of its latest commit — the router's
// load signal, one atomic load per sampled shard.
func (f *Federation) headroom(i int) int { return f.shards[i].Headroom() }

// byHeadroom returns every shard except skip, ordered by descending
// headroom with ties broken by ascending index — the forwarding order.
func (f *Federation) byHeadroom(skip int) []int {
	type sh struct{ idx, head int }
	order := make([]sh, 0, len(f.shards)-1)
	for i := range f.shards {
		if i == skip {
			continue
		}
		order = append(order, sh{i, f.headroom(i)})
	}
	for i := 1; i < len(order); i++ { // insertion sort: n is tiny
		for j := i; j > 0 && (order[j].head > order[j-1].head ||
			(order[j].head == order[j-1].head && order[j].idx < order[j-1].idx)); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	out := make([]int, len(order))
	for i, s := range order {
		out[i] = s.idx
	}
	return out
}

func (f *Federation) noteRouted(shard int) {
	f.metrics.routed[shard].Inc()
	if f.metrics.reg != nil {
		f.metrics.headroomG[shard].Set(float64(f.headroom(shard)))
		f.metrics.queueG[shard].Set(float64(f.shards[shard].QueueDepth()))
	}
}

func (f *Federation) setOwner(vmID, shard int) {
	f.mu.Lock()
	f.owner[vmID] = shard
	f.mu.Unlock()
}

func (f *Federation) clearOwner(vmID int) {
	f.mu.Lock()
	delete(f.owner, vmID)
	f.mu.Unlock()
}

func (f *Federation) ownerOf(vmID int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.owner[vmID] // unknown → 0
}

// ownBatch records ownership for every VM of vms that is absent from
// unplaced (those placed on shard).
func (f *Federation) ownBatch(vms, unplaced []cloud.VM, shard int) {
	skip := make(map[int]bool, len(unplaced))
	for _, vm := range unplaced {
		skip[vm.ID] = true
	}
	f.mu.Lock()
	for _, vm := range vms {
		if !skip[vm.ID] {
			f.owner[vm.ID] = shard
		}
	}
	f.mu.Unlock()
}

// unplacedAfterAbort audits a sub-batch that aborted mid-apply on shard: the
// shard's snapshot placement (published before the erroring call returned) is
// ground truth for which of vms landed. Owners are recorded for the VMs that
// did; the rest come back as the still-unplaced remainder — placesvc clears a
// batch request's unplaced list on a fatal abort, so the failing call's own
// result cannot be trusted to enumerate them.
func (f *Federation) unplacedAfterAbort(vms []cloud.VM, shard int) []cloud.VM {
	p, err := f.shards[shard].Snapshot().Placement()
	if err != nil {
		// Unauditable snapshot: assume nothing landed (a retry may then
		// double-place, but this needs the op-ring replay itself to fail);
		// departures for these ids fall back to shard 0.
		return vms
	}
	rest := make([]cloud.VM, 0, len(vms))
	f.mu.Lock()
	for _, vm := range vms {
		if _, ok := p.PMOf(vm.ID); ok {
			f.owner[vm.ID] = shard
		} else {
			rest = append(rest, vm)
		}
	}
	f.mu.Unlock()
	return rest
}
