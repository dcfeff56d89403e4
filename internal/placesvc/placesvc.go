// Package placesvc is the high-throughput admission service over the §IV-E
// online consolidation scheme: many concurrent callers submit VM arrivals and
// departures, one of them at a time — the leader — commits a batch of them
// through a group-commit pipeline on its own goroutine, and monitoring reads
// run against immutable snapshots that the readers, not the commits, build.
//
// The service owns no goroutine. A caller that finds nobody leading becomes
// the leader (the write-group protocol of LevelDB/RocksDB): it commits its
// own request plus up to MaxBatch − 1 from the head of a mutex-guarded FIFO,
// answers those, then hands the role to the next queued caller or retires.
// Every other caller queues and parks until it is answered or elected, so an
// uncontended call never changes goroutine.
//
// The pipeline shape follows the infinite-server packing view of the online
// problem (Stolyar): admission throughput — not the packing itself — is the
// bottleneck once a single placement costs O(log m), so requests are
// coalesced into batches of up to MaxBatch, each batch's arrivals are ordered
// with the Algorithm-2 cluster-and-sort, and every admission runs through the
// persistent segment-tree first-fit index of core.Online. Within one commit,
// departures apply first (they free capacity), arrivals second, table
// refreshes last (they observe the post-commit fleet). The per-PM halves of a
// commit — rescoring the PMs a departure phase touched and rebuilding the
// whole index after a refresh — fan out over Config.Workers goroutines with a
// deterministic merge.
//
// A steady-state commit allocates nothing beyond its share of the op ring
// (one chunk per 256 ops). It publishes by overwriting a fixed-size cell — the
// stats block and a window into the append-only op ring (see ring.go) — and
// the first reader to ask for that version builds the Snapshot object from it
// (see Service.Snapshot); the per-arrival readers — the admission gate here,
// the shardsvc router — read plain counters instead. A reader never waits for
// commit work and a commit never waits for a reader: the only critical
// section they share is that field copy. Batch ordering relinks through
// reused scratch, and a refused VM is an ordinary outcome
// (core.Online.TryArrive), not an error value built to be dropped.
//
// Determinism contract: placements depend only on the order in which requests
// commit, and commit order is queue order. With MaxBatch = 1, or with a single
// client awaiting each response, that is submission order and the service
// reproduces the sequential core.Online placement bit-identically (see
// TestServeEquivalence). Under concurrent clients the interleaving — and
// therefore the placement — is scheduling-dependent, but every committed
// state satisfies Eq. (17).
package placesvc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("placesvc: service closed")

// obsSampleEvery is the commit-level span-timing sample rate: one commit in
// this many gets its queue-wait / batch-apply / snapshot-publish spans timed
// into the obs windows. Keyed off the commit counter, so which commits are
// sampled is deterministic.
const obsSampleEvery = 8

// Config parameterises a Service.
type Config struct {
	// Strategy is the admission policy (Eq. 17 via its mapping table).
	// MaxVMsPerPM must be ≥ 1. Its Tables cache — the process-wide shared
	// cache when nil — also serves the service's RefreshTable solves.
	Strategy core.QueuingFFD
	// PMs is the pool the service admits into.
	PMs []cloud.PM
	// POn, POff seed the initial mapping table.
	POn, POff float64
	// MaxBatch caps how many requests one commit coalesces (default 256).
	// MaxBatch = 1 disables coalescing: every request commits alone, making
	// commit order equal submission order.
	MaxBatch int
	// Workers caps how many goroutines the leader fans the per-PM work of
	// one commit over: the rescoring of PMs touched by the batch's departures
	// and the whole-index rebuild after a table refresh both partition over
	// contiguous PM sub-ranges and merge in deterministic position order.
	// Arrivals always apply sequentially in Algorithm-2 order through the
	// first-fit tree. Scores are pure functions of the committed placement,
	// so every worker count produces bit-identical placements, snapshots and
	// stats for the same commit sequence — Workers = 1 (the default; 0 means
	// 1) reproduces the fully-sequential commit exactly, mirroring the
	// MaxBatch = 1 ≡ sequential-Online contract. Set runtime.GOMAXPROCS(0)
	// to use every core.
	Workers int
	// MaxWait is the leader's fill window: how long a leader with fewer than
	// MaxBatch requests in hand waits for more before it commits. A full
	// batch, Close, or the leader's own ctx firing ends the window early. The
	// default 0 never waits: the leader commits at once with whatever is
	// queued, so batches form under load and latency stays minimal when idle.
	MaxWait time.Duration
	// Registry receives placesvc_* metrics (placements/sec counters,
	// batch-size and queue-latency histograms, fleet gauges). Nil disables
	// instrumentation at the cost of one branch per commit.
	Registry *telemetry.Registry
	// Obs attaches the live observability plane: rolling queue-wait,
	// batch-apply and snapshot-publish latency windows, the interarrival
	// burstiness probe, and capacity-rejection storms feeding the flight
	// recorder. Nil disables it; a commit then pays one branch, same as
	// Registry.
	Obs *obs.Plane
	// Admission attaches the admission-control layer ahead of the queue:
	// arrivals run through the compiled policy pipeline at submit time —
	// before they enter the queue, so sheds are real backpressure — and the
	// config's per-class deadlines become default contexts for Arrive*.
	// Nil (or an empty config, which compiles to the no-op policy) leaves
	// the service bit-identical to an unconfigured one.
	Admission *admission.Config
}

func (c Config) withDefaults() (Config, error) {
	if c.Strategy.MaxVMsPerPM < 1 {
		return c, fmt.Errorf("placesvc: strategy needs MaxVMsPerPM ≥ 1, got %d", c.Strategy.MaxVMsPerPM)
	}
	switch c.Strategy.Method {
	case core.ClusterRangeBuckets, core.ClusterKMeans, core.ClusterNone, core.ClusterQuantiles:
	default:
		return c, fmt.Errorf("placesvc: unknown cluster method %d", c.Strategy.Method)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxBatch < 1 {
		return c, fmt.Errorf("placesvc: MaxBatch must be ≥ 1, got %d", c.MaxBatch)
	}
	if c.MaxWait < 0 {
		return c, fmt.Errorf("placesvc: MaxWait must be ≥ 0, got %v", c.MaxWait)
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("placesvc: Workers must be ≥ 1, got %d", c.Workers)
	}
	return c, nil
}

// reqKind discriminates the request union. The arrival/departure kinds double
// as snapshot op-ring kinds.
type reqKind uint8

const (
	reqArrive reqKind = iota + 1
	reqArriveBatch
	reqDepart
	reqDepartBatch
	reqRefresh
)

// Cancellation states of a queued request. A cancellable waiter and the
// leader race on state with CAS: the waiter moves pending → abandoned when
// its context fires (and returns immediately, never touching the request
// again), the leader moves pending → claimed when it takes the request into
// its batch or elects it its successor. Whoever loses the race defers to the
// winner: an abandoned request is skipped — never applied — and pooled by the
// leader; a claimed one is answered, or leads, even if the context fires late.
const (
	reqPending int32 = iota
	reqClaimed
	reqAbandoned
)

// request is one operation plus its in-place response. Requests are pooled;
// the done channel (capacity 1) wakes a queued waiter exactly once — to its
// answer or, with lead set, to the leader role — and the waiter returns the
// request to the pool after reading the response fields.
type request struct {
	kind  reqKind
	vm    cloud.VM   // reqArrive
	vms   []cloud.VM // reqArriveBatch
	vmID  int        // reqDepart
	vmIDs []int      // reqDepartBatch
	enq   time.Time  // submission time, set only when metrics are enabled

	// cancellable marks requests submitted with a cancellable context; only
	// those pay the CAS on state when claimed. state is a plain int32
	// accessed with atomic package functions because reset copies the struct.
	cancellable bool
	state       int32
	lead        bool // elected by the retiring leader: claimed; its waiter leads next

	// migrate marks an ArriveMigrated request: an internal shard-to-shard
	// move, not a client arrival. The commit places it normally but keeps
	// it out of the client-stream accounting — no interarrival-probe sample,
	// and a capacity failure is reported to the caller without counting as a
	// Rejected VM or feeding the rejection-storm trigger.
	migrate bool

	// Response, written by the leader before signalling done.
	pmID     int
	unplaced []cloud.VM
	missing  []int // reqDepartBatch: ids that were not placed
	err      error
	fatal    bool // batch abort flag, set mid-apply

	done chan struct{}
}

func (r *request) reset() {
	*r = request{done: r.done}
}

// Stats is the O(1) counter block published with every snapshot.
type Stats struct {
	// Version counts commits; it increases by exactly 1 per commit.
	Version uint64
	// VMs and UsedPMs describe the fleet as of this snapshot.
	VMs     int
	UsedPMs int
	// Placed, Rejected and Departed count VMs (not requests): one batch
	// arrival of 10 VMs with 2 rejections adds 8 and 2.
	Placed   uint64
	Rejected uint64
	Departed uint64
	// Requests counts committed requests, Commits committed batches;
	// Requests/Commits is the realised mean batch size.
	Requests uint64
	Commits  uint64
	// Refreshes counts applied RefreshTable requests.
	Refreshes uint64
}

// Service is the concurrent admission front-end. All mutation methods are
// safe for concurrent use and block until their request commits; Snapshot,
// Stats, Headroom and Occupancy never block on a commit.
type Service struct {
	strategy core.QueuingFFD
	online   *core.Online
	maxBatch int
	maxWait  time.Duration

	// Group-commit protocol state. mu is never held across a commit or a wait.
	mu      sync.Mutex
	queue   []*request    // FIFO of the followers no leader has taken yet
	leading bool          // some caller holds the leader role; false ⇒ queue empty
	closed  bool          // set by Close: submissions fail, fill windows end
	retired sync.Cond     // on mu; broadcast when the last leader retires
	window  chan struct{} // cap 1: ends a fill window (MaxBatch requests waiting, or Close)
	depth   atomic.Int64  // len(queue), for QueueDepth
	pool    sync.Pool

	// Owned by the current leader; the hand-off under mu orders successive ones.
	stats   Stats
	base    *cloud.Placement // immutable snapshot base
	ring    *opRing          // op log since base (see ring.go)
	batch   []*request       // the leader's own request, then the followers it took
	arrs    []arrival        // reused per-commit scratch
	avms    []cloud.VM       // reused per-commit scratch
	links   []link           // reused per-commit scratch: order's relink index
	ordered []arrival        // reused per-commit scratch: order's result
	dirty   []int            // reused per-commit scratch: PMs touched by departures

	// Publication (see publish and Snapshot in snapshot.go). cellMu guards
	// cell and orders the writes of version and handed; nothing but the
	// leader's copy into the cell and a reader's copy out of it ever runs
	// under it — no allocation, clone, replay or metric call.
	cellMu  sync.Mutex
	cell    view
	version atomic.Uint64            // cell.stats.Version, for Snapshot's lock-free repeat read
	handed  atomic.Pointer[Snapshot] // the newest Snapshot handed to a reader, built from cell
	vms     atomic.Int64             // the committed VM count, for Headroom and Occupancy

	metrics *svcMetrics
	obs     *obs.Plane

	// Admission layer. policy is nil when no Admission config was given;
	// admMu serialises Decide (policies are single-writer) and guards
	// shedEwma. slots is the fleet's total VM-slot count (PMs ×
	// MaxVMsPerPM), fixed at construction.
	admMu    sync.Mutex
	policy   *admission.Pipeline
	admCfg   *admission.Config
	pms      int // pool size: the O(PMs) term of a base clone, see publish
	slots    int
	shedEwma float64
}

// shedEwmaAlpha smooths the per-decision shed indicator into the
// admission_shed_rate_ewma gauge: 1/64 ≈ the last ~64 decisions dominate.
const shedEwmaAlpha = 1.0 / 64

// arrival links one VM awaiting placement back to its request. Plain Arrive
// requests carry exactly one; ArriveBatch requests contribute one per VM.
type arrival struct {
	vm  cloud.VM
	req *request
}

// link is one entry of order's relink index: the arrival at position pos of
// the commit carries VM id. On the first link of an id's run, used counts how
// many of the run's arrivals the ordered VMs have claimed so far.
type link struct{ id, pos, used int }

// New builds the service. It starts no goroutine; Close drains and seals it.
func New(cfg Config) (*Service, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	online, err := core.NewOnline(cfg.Strategy, cfg.PMs, cfg.POn, cfg.POff)
	if err != nil {
		return nil, err
	}
	online.Workers = cfg.Workers
	var policy *admission.Pipeline
	policyName := ""
	if cfg.Admission != nil {
		if policy, err = cfg.Admission.Compile(); err != nil {
			return nil, err
		}
		policyName = policy.Name()
	}
	s := &Service{
		strategy: cfg.Strategy,
		online:   online,
		maxBatch: cfg.MaxBatch,
		maxWait:  cfg.MaxWait,
		window:   make(chan struct{}, 1),
		base:     online.Placement().Clone(),
		ring:     newOpRing(),
		metrics:  newSvcMetrics(cfg.Registry, policyName),
		obs:      cfg.Obs,
		policy:   policy,
		admCfg:   cfg.Admission,
		pms:      len(cfg.PMs),
		slots:    len(cfg.PMs) * cfg.Strategy.MaxVMsPerPM,
	}
	s.pool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	s.retired.L = &s.mu
	s.publish()
	return s, nil
}

// Arrive places one VM and returns the chosen PM id. Pool exhaustion is
// reported as an error wrapping cloud.ErrNoCapacity; an admission-policy shed
// (only possible when Config.Admission is set) as one wrapping
// admission.ErrShed. Equivalent to ArriveClass with a background context and
// ClassStandard.
func (s *Service) Arrive(vm cloud.VM) (int, error) {
	return s.ArriveClass(context.Background(), vm, admission.ClassStandard)
}

// ArriveCtx is Arrive honoring ctx while queued: if ctx fires before a leader
// claims the request, the request is skipped — never applied — and ArriveCtx
// returns ctx.Err(). Once a leader claims the request, the placement commits
// and is returned even if ctx fires late.
func (s *Service) ArriveCtx(ctx context.Context, vm cloud.VM) (int, error) {
	return s.ArriveClass(ctx, vm, admission.ClassStandard)
}

// ArriveClass is ArriveCtx with an explicit priority class. The class feeds
// the admission policy (lower classes shed first) and selects the config's
// default deadline, applied when ctx carries none.
func (s *Service) ArriveClass(ctx context.Context, vm cloud.VM, class admission.Class) (int, error) {
	if s.policy != nil {
		if err := s.admit(1, class); err != nil {
			return 0, err
		}
		var cancel context.CancelFunc
		if ctx, cancel = s.deadlineCtx(ctx, class); cancel != nil {
			defer cancel()
		}
	}
	return s.place(ctx, vm, false)
}

// ArriveMigrated places one VM through the internal migration path: the
// arrival half of a shard-to-shard move (shardsvc rebalance transfers and
// their rollbacks). The VM is live, already-admitted capacity in flight
// between fleets, so the admission policy never sees it — re-running
// admission could shed, i.e. evict, a placed VM — mirroring the departure
// contract (departures free capacity and skip admission too). It is also
// kept out of client-stream accounting: no default class deadline, no
// interarrival-probe sample (thinning or padding a point process changes its
// CV), and a capacity failure returns cloud.ErrNoCapacity without counting
// toward Stats.Rejected or the rejection-storm trigger — the migration layer
// does its own failure bookkeeping. The Eq. (17) capacity test itself still
// applies in full.
func (s *Service) ArriveMigrated(vm cloud.VM) (int, error) {
	return s.place(context.Background(), vm, true)
}

// place queues one arrival, past the admission layer, and returns its PM.
func (s *Service) place(ctx context.Context, vm cloud.VM, migrate bool) (int, error) {
	r := s.get(reqArrive)
	r.vm, r.migrate = vm, migrate
	if err := s.submit(ctx, r); err != nil {
		return 0, err
	}
	pmID, err := r.pmID, r.err
	s.put(r)
	if err == cloud.ErrNoCapacity {
		// The commit marks a refusal with the bare sentinel; its text — the
		// one core.Online.Arrive gives, which the commit bypasses through
		// TryArrive — is formatted here, on the goroutine that receives it.
		err = fmt.Errorf("core: no PM can admit VM %d under Eq. (17): %w", vm.ID, err)
	}
	return pmID, err
}

// ArriveBatch places a batch with the Online.ArriveBatch contract: VMs no PM
// can admit come back in unplaced; any other failure aborts the batch's
// remaining VMs and is returned as the error. The batch's VMs are ordered
// together with every other arrival coalesced into the same commit.
func (s *Service) ArriveBatch(vms []cloud.VM) (unplaced []cloud.VM, err error) {
	return s.ArriveBatchClass(context.Background(), vms, admission.ClassStandard)
}

// ArriveBatchCtx is ArriveBatch honoring ctx while queued, with the ArriveCtx
// cancellation contract. The admission policy charges the whole batch at once
// (cost = len(vms)): a shed rejects the batch entire, before it queues.
func (s *Service) ArriveBatchCtx(ctx context.Context, vms []cloud.VM) (unplaced []cloud.VM, err error) {
	return s.ArriveBatchClass(ctx, vms, admission.ClassStandard)
}

// ArriveBatchClass is ArriveBatchCtx with an explicit priority class.
func (s *Service) ArriveBatchClass(ctx context.Context, vms []cloud.VM, class admission.Class) (unplaced []cloud.VM, err error) {
	if err := cloud.ValidateVMs(vms); err != nil {
		return nil, err
	}
	if len(vms) == 0 {
		return nil, nil
	}
	if s.policy != nil {
		if err := s.admit(len(vms), class); err != nil {
			return nil, err
		}
		var cancel context.CancelFunc
		if ctx, cancel = s.deadlineCtx(ctx, class); cancel != nil {
			defer cancel()
		}
	}
	r := s.get(reqArriveBatch)
	r.vms = vms
	if err := s.submit(ctx, r); err != nil {
		return nil, err
	}
	unplaced, err = r.unplaced, r.err
	s.put(r)
	return unplaced, err
}

// Depart removes a VM.
func (s *Service) Depart(vmID int) error {
	return s.DepartCtx(context.Background(), vmID)
}

// DepartCtx is Depart honoring ctx while queued, with the ArriveCtx
// cancellation contract. Departures free capacity, so they never run through
// the admission policy and carry no default deadline — only the caller's own
// ctx can expire them.
func (s *Service) DepartCtx(ctx context.Context, vmID int) error {
	r := s.get(reqDepart)
	r.vmID = vmID
	if err := s.submit(ctx, r); err != nil {
		return err
	}
	err := r.err
	s.put(r)
	return err
}

// admit runs one policy decision for an arrival of the given VM count and
// class, charging metrics and the obs shed-storm counter on a shed. Decisions
// serialise under admMu: policies are single-writer, and the lock also makes
// the wall-clock timestamps fed to the policy non-decreasing.
func (s *Service) admit(cost int, class admission.Class) error {
	// NaN on a slotless (empty-pool) service, which the gate treats as "no
	// reading".
	occ := s.Occupancy()
	s.admMu.Lock()
	d := s.policy.Decide(admission.Request{
		TimeNs:    time.Now().UnixNano(),
		Cost:      cost,
		Class:     class,
		Occupancy: occ,
	})
	shedInd := 0.0
	if !d.Admit {
		shedInd = 1
	}
	s.shedEwma += shedEwmaAlpha * (shedInd - s.shedEwma)
	ewma := s.shedEwma
	s.admMu.Unlock()
	if m := s.metrics; m != nil {
		m.admQueueDepth.Set(float64(s.QueueDepth()))
		m.shedEwma.Set(ewma)
	}
	if d.Admit {
		return nil
	}
	if m := s.metrics; m != nil {
		m.sheds[class].Add(uint64(cost))
	}
	if o := s.obs; o != nil {
		o.ObserveSheds(cost)
	}
	return fmt.Errorf("placesvc: %s arrival shed by %s policy: %w", class, d.Reason, admission.ErrShed)
}

// deadlineCtx applies the admission config's default deadline for class when
// ctx carries none of its own. The returned cancel is nil when ctx is passed
// through unchanged.
func (s *Service) deadlineCtx(ctx context.Context, class admission.Class) (context.Context, context.CancelFunc) {
	if s.admCfg == nil {
		return ctx, nil
	}
	d := s.admCfg.Deadline(class)
	if d <= 0 {
		return ctx, nil
	}
	if _, has := ctx.Deadline(); has {
		return ctx, nil
	}
	return context.WithTimeout(ctx, d)
}

// DepartBatch removes a batch of VMs in one request — the departure
// counterpart of ArriveBatch. All removals commit together; ids that were not
// placed come back in missing (the batch's other departures still apply).
// Batched departures are where the commit's parallel rescore earns its
// keep: the batch frees capacity across many PMs, and the touched PMs are
// rescored in one fan-out instead of one tree update per departure.
func (s *Service) DepartBatch(vmIDs []int) (missing []int, err error) {
	if len(vmIDs) == 0 {
		return nil, nil
	}
	r := s.get(reqDepartBatch)
	r.vmIDs = vmIDs
	if err := s.submit(context.Background(), r); err != nil {
		return nil, err
	}
	missing, err = r.missing, r.err
	s.put(r)
	return missing, err
}

// RefreshTable recomputes the mapping table from the fleet's rounded switch
// probabilities (§IV-E periodic recalculation). The solve goes through the
// strategy's table cache, so concurrent refreshes of the same cohort —
// within this service or across services sharing the cache — solve once.
func (s *Service) RefreshTable() error {
	r := s.get(reqRefresh)
	if err := s.submit(context.Background(), r); err != nil {
		return err
	}
	err := r.err
	s.put(r)
	return err
}

// Stats returns the latest published counters.
func (s *Service) Stats() Stats {
	s.cellMu.Lock()
	st := s.cell.stats
	s.cellMu.Unlock()
	return st
}

// Slots returns the fleet's total Eq. (17) admission slots, PMs × MaxVMsPerPM.
func (s *Service) Slots() int { return s.slots }

// Headroom returns the free Eq. (17) slot count as of the latest commit —
// Snapshot().Headroom() without building a snapshot: one atomic load. It is
// what the shardsvc router's power-of-d choice reads on every arrival.
func (s *Service) Headroom() int { return s.slots - int(s.vms.Load()) }

// Occupancy returns the fleet slot occupancy VMs/Slots in [0, 1] as of the
// latest commit, in the units the admission OccupancyGate thresholds on; NaN
// when the service has no slots. Like Headroom, one atomic load.
func (s *Service) Occupancy() float64 { return occupancy(int(s.vms.Load()), s.slots) }

// QueueDepth returns the number of requests no leader has taken yet — an
// instantaneous backpressure reading. Safe for concurrent use; the shardsvc
// federation exports it per shard.
func (s *Service) QueueDepth() int { return int(s.depth.Load()) }

// Close seals the service, ends an open fill window and returns once the last
// leader has retired, so every request queued before it has committed.
// Requests submitted after Close fail with ErrClosed; Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.signalWindow()
	for s.leading {
		s.retired.Wait()
	}
	s.mu.Unlock()
	return nil
}

func (s *Service) get(kind reqKind) *request {
	r := s.pool.Get().(*request)
	r.reset()
	r.kind = kind
	return r
}

func (s *Service) put(r *request) { s.pool.Put(r) }

// submit hands the request to the group commit and returns once it has
// committed — on this goroutine when the caller finds nobody leading or is
// elected, on the leader's otherwise — or once a cancellable ctx made the
// caller abandon it (the reqPending state machine). Non-cancellable contexts
// never touch the state word: the bit-identical equivalence contract.
func (s *Service) submit(ctx context.Context, r *request) error {
	done := ctx.Done()
	if done != nil {
		if err := ctx.Err(); err != nil {
			s.put(r)
			return err
		}
		r.cancellable = true
	}
	if s.metrics != nil || s.obs != nil {
		r.enq = time.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.put(r)
		return ErrClosed
	}
	if !s.leading {
		s.leading = true
		s.batch = append(s.batch[:0], r)
		return s.lead(ctx, r)
	}
	s.queue = append(s.queue, r)
	s.depth.Store(int64(len(s.queue)))
	if len(s.queue) == s.maxBatch-1 { // with the leader's own, a full batch
		s.signalWindow()
	}
	s.mu.Unlock()
	select {
	case <-r.done:
	case <-done:
		if atomic.CompareAndSwapInt32(&r.state, reqPending, reqAbandoned) {
			return ctx.Err() // a leader will skip and pool r: hands off it
		}
		<-r.done // a leader claimed it first: the answer, or the role, is imminent
	}
	if !r.lead {
		return nil
	}
	s.mu.Lock()
	return s.lead(ctx, r)
}

// lead runs the caller as the leader: fill window, take, commit, answer, hand
// off. Called with mu held, leading set and the batch holding just own, the
// caller's request; returns with mu released and own committed or given up.
func (s *Service) lead(ctx context.Context, own *request) (err error) {
	if s.maxWait > 0 && len(s.batch)+len(s.queue) < s.maxBatch && !s.closed {
		select {
		case <-s.window: // stale: left by a signal no window was open for
		default:
		}
		s.mu.Unlock()
		timer := time.NewTimer(s.maxWait)
		select {
		case <-s.window:
		case <-timer.C:
		case <-ctx.Done():
			if !own.lead {
				// Never queued, so nobody else holds own (an elected request
				// is claimed and commits regardless): drop it from the batch.
				s.batch = s.batch[:0]
				s.put(own)
				own, err = nil, ctx.Err()
			}
		}
		timer.Stop()
		s.mu.Lock()
	}
	s.fill(s.maxBatch)
	s.mu.Unlock()
	woke := false
	if len(s.batch) > 0 {
		s.commit(s.batch)
		// Answering after publication: a client that reads the snapshot
		// after its response sees a version ≥ the commit that placed it.
		for _, r := range s.batch {
			if r != own {
				r.done <- struct{}{}
				woke = true
			}
		}
	}
	s.mu.Lock()
	next := s.elect()
	s.mu.Unlock()
	if next != nil {
		next.done <- struct{}{}
		woke = true
	}
	if woke {
		// Part of the protocol, not tuning: the woken goroutine sits in this
		// P's runnext, and a leader that never blocks keeps the P — the
		// follower then waits for another P to steal it, tens of µs. Yielding
		// runs it now and requeues the leader globally.
		runtime.Gosched()
	}
	return err
}

// fill moves requests from the queue head into the leader's batch, in queue
// order, until the batch holds limit. It claims each one; a request whose
// waiter abandoned it first — and is gone — is pooled instead. Under mu.
func (s *Service) fill(limit int) {
	n := 0
	for ; n < len(s.queue) && len(s.batch) < limit; n++ {
		r := s.queue[n]
		if r.cancellable && !atomic.CompareAndSwapInt32(&r.state, reqPending, reqClaimed) {
			s.put(r)
			continue
		}
		s.batch = append(s.batch, r)
	}
	if n == 0 {
		return
	}
	rest := copy(s.queue, s.queue[n:])
	clear(s.queue[rest:])
	s.queue = s.queue[:rest]
	s.depth.Store(int64(rest))
}

// elect passes the leader role on, under mu: the first queued request still
// wanted starts the next batch and its waiter, which the caller wakes, leads;
// with nobody queued the leader retires and a waiting Close may return.
func (s *Service) elect() *request {
	s.batch = s.batch[:0]
	if s.fill(1); len(s.batch) == 0 {
		s.leading = false
		s.retired.Broadcast()
		return nil
	}
	s.batch[0].lead = true
	return s.batch[0]
}

// signalWindow ends the leader's fill window, if one is open. Always under mu,
// which is what lets lead tell a stale signal from a live one.
func (s *Service) signalWindow() {
	select {
	case s.window <- struct{}{}:
	default:
	}
}

// commit applies one coalesced batch on the leader's goroutine: departures,
// then Algorithm-2-ordered arrivals, then refreshes; then publishes the
// snapshot. Every request in the batch is already claimed.
func (s *Service) commit(batch []*request) {
	// Span timing is sampled one commit in obsSampleEvery: the rolling
	// quantiles only need a uniform subsample, and skipping the clock reads
	// and window pushes on the other commits keeps the obs-on overhead on
	// BenchmarkServeAdmit single-digit. Sampling keys off the commit number,
	// so it is deterministic and load-independent. The interarrival probe is
	// NOT sampled — thinning a point process changes its CV — and arrival
	// stamps cost nothing extra here (submit already took them).
	sampled := s.obs != nil && s.stats.Commits%obsSampleEvery == 0
	var applyStart time.Time
	if s.metrics != nil || sampled {
		applyStart = time.Now()
	}
	if m := s.metrics; m != nil {
		m.commits.Inc()
		m.requests.Add(uint64(len(batch)))
		m.batchSize.Observe(float64(len(batch)))
		for _, r := range batch {
			m.queueLatency.Observe(applyStart.Sub(r.enq))
		}
		m.queueDepth.Set(float64(s.QueueDepth()))
	}
	if o := s.obs; o != nil {
		for _, r := range batch {
			if sampled {
				o.QueueWait.ObserveAt(applyStart, applyStart.Sub(r.enq))
			}
			if (r.kind == reqArrive && !r.migrate) || r.kind == reqArriveBatch {
				// Submission times drive the interarrival-CV burstiness probe.
				// Migrations are internal re-arrivals, not client load, and
				// would distort the CV.
				o.Probes.ObserveArrival(r.enq)
			}
		}
	}
	rejectedBefore := s.stats.Rejected
	s.stats.Commits++
	s.stats.Requests += uint64(len(batch))

	// Phase 1: departures, in submission order. Removals mutate the placement
	// immediately; rescoring the PMs they touched is deferred, collected in
	// s.dirty, and fanned out across the configured Workers once the whole
	// phase has applied — the fit index is stale in between, which is safe
	// because nothing consults it until the arrivals of phase 2, and the
	// deferred rescore reads the final post-departure placement (identical
	// scores to per-departure refreshes, at any worker count).
	s.dirty = s.dirty[:0]
	for _, r := range batch {
		switch r.kind {
		case reqDepart:
			var pmID int
			if pmID, r.err = s.online.DepartNoRefresh(r.vmID); r.err == nil {
				s.ring.append(op{kind: reqDepart, vmID: r.vmID})
				s.dirty = append(s.dirty, pmID)
				s.stats.Departed++
				if s.metrics != nil {
					s.metrics.departures.Inc()
				}
			}
		case reqDepartBatch:
			for _, vmID := range r.vmIDs {
				pmID, err := s.online.DepartNoRefresh(vmID)
				if err != nil {
					r.missing = append(r.missing, vmID)
					continue
				}
				s.ring.append(op{kind: reqDepart, vmID: vmID})
				s.dirty = append(s.dirty, pmID)
				s.stats.Departed++
				if s.metrics != nil {
					s.metrics.departures.Inc()
				}
			}
		}
	}
	s.online.RefreshPMs(s.dirty)

	// Phase 2: arrivals, ordered across the whole batch.
	s.arrs = s.arrs[:0]
	for _, r := range batch {
		switch r.kind {
		case reqArrive:
			s.arrs = append(s.arrs, arrival{vm: r.vm, req: r})
		case reqArriveBatch:
			for _, vm := range r.vms {
				s.arrs = append(s.arrs, arrival{vm: vm, req: r})
			}
		}
	}
	for _, a := range s.order(s.arrs) {
		r := a.req
		if r.fatal {
			continue // a real error already aborted this batch request
		}
		pmID, ok, err := s.online.TryArrive(a.vm)
		switch {
		case ok:
			s.ring.append(op{kind: reqArrive, vm: a.vm, pmID: pmID})
			s.stats.Placed++
			if s.metrics != nil {
				s.metrics.placements.Inc()
			}
			if r.kind == reqArrive {
				r.pmID = pmID
			}
		case err == nil:
			// Pool exhausted. A batch collects the VM; a single arrival's
			// caller gets the sentinel, bare — place dresses it.
			if r.kind == reqArrive {
				r.err = cloud.ErrNoCapacity
			} else {
				r.unplaced = append(r.unplaced, a.vm)
			}
			if !r.migrate {
				s.stats.Rejected++
				if s.metrics != nil {
					s.metrics.rejections.Inc()
				}
			}
		case r.kind == reqArrive:
			r.err = err
		default:
			// Batch member: anything but exhaustion aborts the batch.
			r.err = err
			r.unplaced = nil
			r.fatal = true
		}
	}

	// Phase 3: refreshes observe the post-commit fleet; coalesced refreshes
	// in one batch are idempotent, so the first applies and the rest share
	// its result.
	refreshed := false
	var refreshErr error
	for _, r := range batch {
		if r.kind != reqRefresh {
			continue
		}
		if !refreshed {
			refreshErr = s.online.RefreshTable()
			refreshed = true
			if refreshErr == nil {
				s.stats.Refreshes++
				if s.metrics != nil {
					s.metrics.refreshes.Inc()
				}
			}
		}
		r.err = refreshErr
	}

	var pubStart time.Time
	if sampled {
		pubStart = time.Now()
	}
	s.publish()
	if o := s.obs; o != nil {
		if sampled {
			now := time.Now()
			// BatchApply spans the three apply phases; SnapshotPublish the
			// publication that follows them.
			o.BatchApply.ObserveAt(pubStart, pubStart.Sub(applyStart))
			o.SnapshotPublish.ObserveAt(now, now.Sub(pubStart))
		}
		if d := s.stats.Rejected - rejectedBefore; d > 0 {
			// Feed capacity rejections to the flight recorder's storm
			// trigger; placesvc emits no trace events, so this is the
			// out-of-band path. Never sampled: storms must count every
			// rejection.
			o.ObserveRejections(int(d))
		}
	}
}

// order applies the Algorithm-2 cluster-and-sort across the batch's
// arrivals. Zero or one arrival commits as-is; an ordering failure (a
// strategy misconfiguration caught at New, so effectively unreachable) falls
// back to submission order, which is always safe — ordering is a packing
// heuristic, not a correctness requirement.
func (s *Service) order(arrs []arrival) []arrival {
	if len(arrs) < 2 {
		return arrs
	}
	s.avms = s.avms[:0]
	for _, a := range arrs {
		s.avms = append(s.avms, a.vm)
	}
	ordered, err := s.strategy.Order(s.avms)
	if err != nil {
		return arrs
	}
	// Re-link ordered VMs to their requests. Ids can repeat across a batch
	// (the duplicate fails Assign later), so pair each ordered VM with the
	// first not-yet-taken arrival of that id: in an index of the arrivals
	// sorted by (id, position) a binary search finds the id's run, whose
	// first link counts how far into the run earlier VMs have taken.
	s.links = s.links[:0]
	for i, a := range arrs {
		s.links = append(s.links, link{id: a.vm.ID, pos: i})
	}
	slices.SortFunc(s.links, func(a, b link) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.pos, b.pos))
	})
	s.ordered = s.ordered[:0]
	for _, vm := range ordered {
		first, _ := slices.BinarySearchFunc(s.links, vm.ID, func(l link, id int) int {
			return cmp.Compare(l.id, id)
		})
		run := &s.links[first]
		s.ordered = append(s.ordered, arrs[s.links[first+run.used].pos])
		run.used++
	}
	return s.ordered
}
