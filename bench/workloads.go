package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/placesvc"
	"repro/internal/queuing"
	"repro/internal/shardsvc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// sizes are the input sizes of one scale. "full" is the benchmark; "tiny"
// exists for the smoke test and measures nothing worth quoting.
type sizes struct {
	closedVMs, closedPMs, closedOps int
	openArrivals, openPMs           int
	openRate, openLife              float64
	batchPMs                        int
	batchVMOps                      int64
	readEvery                       time.Duration
	consVMs, simIntervals           int
	ladderOps                       int // script prefix each ladder rung replays
	ladderReps                      int
	probeVMs, probeIntervals        int // fleet slice and run length of the traced sim probe
	minRounds, maxRounds            int
	setups                          int
}

var scales = map[string]sizes{
	"full": {
		closedVMs: 4000, closedPMs: 1000, closedOps: 400_000,
		openArrivals: 80_000, openPMs: 1000, openRate: 20_000, openLife: 0.15,
		batchPMs: 1000, batchVMOps: 1_000_000, readEvery: 5 * time.Millisecond,
		consVMs: 100_000, simIntervals: 300,
		ladderOps: 100_000, ladderReps: 3,
		probeVMs: 20_000, probeIntervals: 100,
		minRounds: 3, maxRounds: 15, setups: 3,
	},
	"tiny": {
		closedVMs: 400, closedPMs: 100, closedOps: 4000,
		openArrivals: 1500, openPMs: 100, openRate: 20_000, openLife: 0.005,
		batchPMs: 50, batchVMOps: 20_000, readEvery: time.Millisecond,
		consVMs: 2000, simIntervals: 30,
		ladderOps: 2000, ladderReps: 1,
		probeVMs: 500, probeIntervals: 10,
		minRounds: 2, maxRounds: 2, setups: 1,
	},
}

//go:embed testdata/admission_open.json
var admissionOpenJSON []byte

// openAdmission is the non-shedding policy of open-burst-fed and of the
// ladder's admission rung: admission.Calibrated(4 × rate) token bucket plus a
// 0.97/0.90 occupancy gate, scope "shard".
func openAdmission() (*admission.Config, error) {
	return admission.Parse(bytes.NewReader(admissionOpenJSON))
}

// tailQ is the quantile each workload reports as op_tail_us: the highest of
// p95 / p99 / p99.9 that leaves at least ten samples beyond it in one round
// and does not sit on a cliff of that workload's latency distribution.
// closed-light has ~190 k samples a round and a slow mode (≈ 70 µs, a parked
// committer being woken) that 0.2–1.5 % of calls hit, so its p99 flips between
// 5 and 70 µs from round to round while p99.9 stays inside the slow mode;
// consolidate-sim has 300 intervals a round, so p99 would be its third-largest
// sample.
var tailQ = map[string]float64{
	"closed-light":         0.999,
	"open-burst-fed":       0.99,
	"batch-saturated-read": 0.99,
	"consolidate-sim":      0.95,
}

// roundStats is what one timed round yields. The run reports the median of
// each field over its rounds.
type roundStats struct {
	opsPerS, p50us, tailUs, admitted, pmsUsed, allocsPerOp float64
	attempted, failed                                      int64
	samples                                                int
	extra                                                  map[string]float64 // per-layer counts seen in this round
}

// fixture is one workload after set-up: a way to run a round, and the script
// and fleet the ladder and probes reuse.
type fixture interface {
	round(tr *tracer, parent int32) (*roundStats, error)
	core() *base
}

type base struct {
	s   *script
	vms []cloud.VM
	sd  int64
	sz  sizes
	// tables is private to the fixture so every set-up solves its mapping
	// table cold, as a fresh process would.
	tables *queuing.TableCache
}

func (b *base) core() *base { return b }

func (b *base) svcConfig() placesvc.Config {
	return placesvc.Config{Strategy: strategy(b.tables), PMs: b.s.pms, POn: pOn, POff: pOff, Workers: workers}
}

func (b *base) fedConfig(shards int) shardsvc.Config {
	return shardsvc.Config{Strategy: strategy(b.tables), PMs: b.s.pms, POn: pOn, POff: pOff,
		Workers: workers, MaxShards: shards, D: 2, Seed: uint64(b.sd)}
}

// mallocs reads the cumulative allocation count; called only outside timed
// sections (ReadMemStats stops the world).
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// serveStats derives the latency and accounting fields shared by the three
// serving workloads from the timed part of a round.
func serveStats(lat []int64, tailQ float64, t tally, vmOps int64, wallNs int64, allocs uint64, expectedRefused int64) *roundStats {
	q := nsQuantilesUs(lat, 0.50, tailQ)
	return &roundStats{
		opsPerS:     float64(vmOps) / (float64(wallNs) / 1e9),
		p50us:       q[0],
		tailUs:      q[1],
		admitted:    float64(t.placed) / float64(t.arrived),
		allocsPerOp: float64(allocs) / float64(vmOps),
		attempted:   vmOps,
		failed:      t.refused - expectedRefused,
		samples:     len(lat),
		extra:       map[string]float64{},
	}
}

func (st *roundStats) noteStats(s placesvc.Stats) {
	st.pmsUsed = float64(s.UsedPMs)
	st.extra["placesvc.commits"] = float64(s.Commits)
	st.extra["placesvc.mean_batch"] = float64(s.Requests) / float64(s.Commits)
}

// ---- closed-light ----------------------------------------------------------

type closedFix struct {
	base
	clients [][]op // per-client op lists, warm-up prefix first
	warm    []int  // per-client warm-up length
}

const closedClients = 2

func setupClosed(seed int64, sz sizes) (fixture, error) {
	s, vms, err := genClosed(seed, sz.closedVMs, sz.closedPMs, sz.closedOps)
	if err != nil {
		return nil, err
	}
	f := &closedFix{base: base{s: s, vms: vms, sd: seed, sz: sz, tables: queuing.NewTableCache()},
		clients: make([][]op, closedClients), warm: make([]int, closedClients)}
	// Client c owns the VMs with id ≡ c: the loadgen partition. Each client
	// keeps the global order of its own ops, so per-VM order is preserved.
	for i, o := range s.ops {
		c := o.vm.ID % closedClients
		f.clients[c] = append(f.clients[c], o)
		if i < s.warm {
			f.warm[c]++
		}
	}
	svc, err := placesvc.New(f.svcConfig())
	if err != nil {
		return nil, err
	}
	return f, svc.Close()
}

func (f *closedFix) round(tr *tracer, parent int32) (*roundStats, error) {
	svc, err := placesvc.New(f.svcConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	recs := make([]*recorder, closedClients)
	for c := range recs {
		recs[c] = newRecorder(f.s, len(f.clients[c]), tr != nil)
	}
	placed := make([]bool, f.s.maxID+1)
	errs := make([]error, closedClients)
	phase := func(timed bool) {
		var wg sync.WaitGroup
		for c := 0; c < closedClients; c++ {
			from, to := 0, f.warm[c]
			if timed {
				from, to = f.warm[c], len(f.clients[c])
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				if errs[c] == nil {
					errs[c] = recs[c].replay(svc, f.s, f.clients[c], from, to, placed)
				}
			}(c)
		}
		wg.Wait()
	}
	phase(false)
	runtime.GC()
	m0 := mallocs()
	id := tr.begin(parent, "round", "driver")
	t0 := nanos()
	phase(true)
	wall := nanos() - t0
	tr.end(id, f.s.vmOps)
	allocs := mallocs() - m0
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("client %d: %w", c, err)
		}
	}
	var all, timed tally
	var lat []int64
	for c, r := range recs {
		all.add(r.count(f.s, f.clients[c], 0, len(f.clients[c])))
		timed.add(r.count(f.s, f.clients[c], f.warm[c], len(f.clients[c])))
		lat = r.arrivalLats(f.clients[c], f.warm[c], len(f.clients[c]), lat)
		tr.addOps(id, "placesvc", f.s, f.clients[c], r, f.warm[c], len(f.clients[c]))
	}
	if _, err := checkFinal(svc, all, false); err != nil {
		return nil, err
	}
	st := serveStats(lat, tailQ["closed-light"], timed, f.s.vmOps, wall, allocs, 0)
	st.noteStats(svc.Stats())
	return st, nil
}

// ---- open-burst-fed --------------------------------------------------------

type openFix struct {
	base
	adm *admission.Config
}

func setupOpen(seed int64, sz sizes) (fixture, error) {
	s, vms, err := genOpen(seed, sz.openArrivals, sz.openPMs, sz.openRate, sz.openLife)
	if err != nil {
		return nil, err
	}
	adm, err := openAdmission()
	if err != nil {
		return nil, err
	}
	f := &openFix{base: base{s: s, vms: vms, sd: seed, sz: sz, tables: queuing.NewTableCache()}, adm: adm}
	fed, err := f.build()
	if err != nil {
		return nil, err
	}
	return f, fed.Close()
}

func (f *openFix) build() (*shardsvc.Federation, error) {
	cfg := f.fedConfig(4)
	cfg.Admission = f.adm
	return shardsvc.New(cfg)
}

// errInvalidRound marks an open-loop round whose generator did not keep its
// schedule; the run repeats it once before giving up.
var errInvalidRound = fmt.Errorf("open-loop round invalid")

func (f *openFix) round(tr *tracer, parent int32) (*roundStats, error) {
	fed, err := f.build()
	if err != nil {
		return nil, err
	}
	defer fed.Close()
	s := f.s
	rec := newRecorder(s, len(s.ops), tr != nil)
	placed := make([]bool, s.maxID+1)
	if _, err := rec.replayOpen(fed, s, 0, s.warm, placed); err != nil {
		return nil, err
	}
	runtime.GC()
	m0 := mallocs()
	id := tr.begin(parent, "round", "driver")
	t0 := nanos()
	ost, err := rec.replayOpen(fed, s, s.warm, len(s.ops), placed)
	wall := nanos() - t0
	tr.end(id, s.vmOps)
	allocs := mallocs() - m0
	if err != nil {
		return nil, err
	}
	tr.addOps(id, "shardsvc", s, s.ops, rec, s.warm, len(s.ops))
	if _, err := checkFinal(fed, rec.count(s, s.ops, 0, len(s.ops)), false); err != nil {
		return nil, err
	}
	lat := rec.arrivalLats(s.ops, s.warm, len(s.ops), nil)
	st := serveStats(lat, tailQ["open-burst-fed"], rec.count(s, s.ops, s.warm, len(s.ops)), s.vmOps, wall, allocs, 0)
	st.noteStats(fed.Stats())
	lagP99 := nsQuantilesUs(ost.lagNs, 0.99)[0]
	st.extra["driver.gen_lag_frac"] = lagP99 / st.tailUs
	st.extra["driver.backlog_max"] = float64(ost.backlogMax)
	st.extra["driver.drain_ms"] = float64(ost.drainNs) / 1e6
	// Validity (ISSUE satellite 3): the generator must not be the thing being
	// measured, and the queue must not still be growing when the schedule ends.
	// Lag under lagFloorUs is the scheduler's own jitter and is not held
	// against a round whose tail is itself that small (the tiny scale).
	const lagFloorUs = 250
	if lagP99 > lagFloorUs && lagP99 > st.tailUs/2 {
		return st, fmt.Errorf("%w: generator lag p99 %.0f µs exceeds half of the op tail %.0f µs", errInvalidRound, lagP99, st.tailUs)
	}
	if ost.drainNs > int64(100*time.Millisecond) {
		return st, fmt.Errorf("%w: backlog took %.0f ms to drain after the last due op", errInvalidRound, float64(ost.drainNs)/1e6)
	}
	return st, nil
}

// ---- batch-saturated-read --------------------------------------------------

type batchFix struct{ base }

func setupBatch(seed int64, sz sizes) (fixture, error) {
	s, vms, err := genBatch(seed, sz.batchPMs, sz.batchVMOps)
	if err != nil {
		return nil, err
	}
	f := &batchFix{base{s: s, vms: vms, sd: seed, sz: sz, tables: queuing.NewTableCache()}}
	// Precondition, verified: the script holds the pool at saturation, so that
	// one arriving VM in ten (± 2 points) is refused by Eq. (17).
	var refused int64
	for i := s.warm; i < len(s.ops); i++ {
		if o := s.ops[i]; o.kind == opArriveBatch {
			refused += int64(len(s.want.unplaced[o.batch]))
		}
	}
	if frac := float64(refused) / float64(s.arrVMs); frac < 0.08 || frac > 0.12 {
		return nil, fmt.Errorf("batch script refuses %.3f of arriving VMs, want 0.10 ± 0.02", frac)
	}
	svc, err := placesvc.New(f.svcConfig())
	if err != nil {
		return nil, err
	}
	return f, svc.Close()
}

// monitorRead is one monitoring read: Snapshot → Placement → Overflows. It
// returns the four timestamps around the three steps.
func monitorRead(svc *placesvc.Service) ([4]int64, error) {
	var t [4]int64
	t[0] = nanos()
	snap := svc.Snapshot()
	t[1] = nanos()
	if _, err := snap.Placement(); err != nil {
		return t, err
	}
	t[2] = nanos()
	ov, err := snap.Overflows()
	t[3] = nanos()
	if err != nil {
		return t, err
	}
	if len(ov) != 0 {
		return t, gatef("monitoring read saw %d Eq. (17) overflows", len(ov))
	}
	return t, nil
}

func (f *batchFix) round(tr *tracer, parent int32) (*roundStats, error) {
	svc, err := placesvc.New(f.svcConfig())
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	s := f.s
	rec := newRecorder(s, len(s.ops), tr != nil)
	if err := rec.replay(svc, s, s.ops, 0, s.warm, nil); err != nil {
		return nil, err
	}
	reads := make([][4]int64, 0, 1<<16)
	stop := make(chan struct{})
	var readErr error
	var wg sync.WaitGroup
	runtime.GC()
	m0 := mallocs()
	id := tr.begin(parent, "round", "driver")
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(f.sz.readEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			t, err := monitorRead(svc)
			if err != nil {
				readErr = err
				return
			}
			if len(reads) < cap(reads) {
				reads = append(reads, t)
			}
		}
	}()
	t0 := nanos()
	err = rec.replay(svc, s, s.ops, s.warm, len(s.ops), nil)
	wall := nanos() - t0
	close(stop)
	wg.Wait()
	tr.end(id, s.vmOps)
	allocs := mallocs() - m0
	if err != nil {
		return nil, err
	}
	if readErr != nil {
		return nil, readErr
	}
	tr.addOps(id, "placesvc", s, s.ops, rec, s.warm, len(s.ops))
	final, err := checkFinal(svc, rec.count(s, s.ops, 0, len(s.ops)), false)
	if err != nil {
		return nil, err
	}
	if err := checkOracle(s, rec, s.want, len(s.ops), final); err != nil {
		return nil, err
	}
	lat := rec.arrivalLats(s.ops, s.warm, len(s.ops), nil)
	var expRefused int64
	for i := s.warm; i < len(s.ops); i++ {
		if o := s.ops[i]; o.kind == opArriveBatch {
			expRefused += int64(len(s.want.unplaced[o.batch]))
		}
	}
	st := serveStats(lat, tailQ["batch-saturated-read"], rec.count(s, s.ops, s.warm, len(s.ops)), s.vmOps, wall, allocs, expRefused)
	st.noteStats(svc.Stats())
	readNs := make([]int64, len(reads))
	for i, t := range reads {
		readNs[i] = t[3] - t[0]
		if tr != nil {
			rid := tr.add(id, "monitor.read", "driver", t[0], t[3], 0)
			tr.add(rid, "Snapshot", "placesvc", t[0], t[1], 0)
			tr.add(rid, "Placement", "placesvc", t[1], t[2], 0)
			tr.add(rid, "Overflows", "placesvc", t[2], t[3], 0)
		}
	}
	if len(readNs) > 0 {
		q := nsQuantilesUs(readNs, 0.5, 0.9)
		st.extra["placesvc.live_read_p50_us"] = q[0]
		st.extra["placesvc.live_read_p90_us"] = q[1]
	}
	st.extra["placesvc.live_reads"] = float64(len(readNs))
	return st, nil
}

// ---- consolidate-sim -------------------------------------------------------

type consFix struct {
	base
	pms   []cloud.PM
	table *queuing.MappingTable
	// first holds the first round's simulated-time results; every later round
	// must reproduce them exactly.
	first *simStats
}

func setupCons(seed int64, sz sizes) (fixture, error) {
	rng := rand.New(rand.NewSource(seed))
	vms, pms, err := genFleet(rng, sz.consVMs, sz.consVMs)
	if err != nil {
		return nil, err
	}
	f := &consFix{base: base{vms: vms, sd: seed, sz: sz, tables: queuing.NewTableCache()}, pms: pms}
	if f.table, err = strategy(f.tables).Table(vms); err != nil {
		return nil, err
	}
	ordered, err := strategy(f.tables).Order(vms)
	if err != nil {
		return nil, err
	}
	f.s = genArrivals(ordered, pms)
	return f, nil
}

// timedSource wraps the DemandSource handed to the simulator: Step is called
// once at the start of every interval, so consecutive entries delimit the
// intervals, and the time inside Step is the workload layer's share.
type timedSource struct {
	inner  sim.DemandSource
	enter  []int64
	inside int64
}

func (t *timedSource) Step(rng *rand.Rand) {
	t0 := nanos()
	t.enter = append(t.enter, t0)
	t.inner.Step(rng)
	t.inside += nanos() - t0
}
func (t *timedSource) States() map[int]markov.State { return t.inner.States() }

// simStats is one simulator run seen from outside.
type simStats struct {
	newNs, runNs, stepNs int64
	intervalNs           []int64
	cvrMean              float64
	migrations, finalPMs int
	reports              int
	solves, hits         uint64
}

// simulate builds and runs the consolidate-sim simulator configuration over
// placement: HashedFleet demand, migration on with 0.1 overhead, and the
// horizon-10 forecast hook on a private cache.
func simulate(p *cloud.Placement, table *queuing.MappingTable, vms []cloud.VM, seed int64, intervals int, tr *tracer, parent int32) (*simStats, error) {
	st := &simStats{}
	fleet, err := workload.NewHashedFleet(vms, seed)
	if err != nil {
		return nil, err
	}
	src := &timedSource{inner: fleet, enter: make([]int64, 0, intervals)}
	cache := queuing.NewForecastCache()
	cfg := sim.Config{
		Intervals: intervals, Rho: rho, EnableMigration: true, MigrationOverhead: 0.1,
		Forecast: &sim.ForecastConfig{Horizon: 10, Cache: cache, OnReport: func(sim.ForecastReport) { st.reports++ }},
	}
	id := tr.begin(parent, "sim.NewWithSource", "sim")
	t0 := nanos()
	sm, err := sim.NewWithSource(p, table, cfg, src, rand.New(rand.NewSource(seed)))
	st.newNs = nanos() - t0
	tr.end(id, int64(len(vms)))
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, "sim.Run", "sim")
	t0 = nanos()
	rep, err := sm.Run()
	end := nanos()
	tr.end(id, int64(intervals))
	if err != nil {
		return nil, err
	}
	st.runNs, st.stepNs = end-t0, src.inside
	for i, at := range src.enter {
		next := end
		if i+1 < len(src.enter) {
			next = src.enter[i+1]
		}
		st.intervalNs = append(st.intervalNs, next-at)
	}
	if tr != nil {
		tr.add(id, "DemandSource.Step", "workload", t0, t0+src.inside, int64(intervals))
	}
	st.cvrMean, st.migrations, st.finalPMs = rep.CVR.Mean(), rep.TotalMigrations, rep.FinalPMs
	st.solves, st.hits = cache.Solves(), cache.Hits()
	if st.cvrMean > rho {
		return nil, gatef("simulated mean CVR %.5f exceeds ρ = %v", st.cvrMean, rho)
	}
	return st, nil
}

func (s *simStats) extras(into map[string]float64) {
	into["sim.new_s"] = float64(s.newNs) / 1e9
	into["sim.step_ms"] = float64(s.runNs) / 1e6 / float64(len(s.intervalNs))
	into["sim.intervals_per_s"] = float64(len(s.intervalNs)) / (float64(s.runNs) / 1e9)
	into["sim.forecast_reports"] = float64(s.reports)
	into["sim.cvr_mean"] = s.cvrMean
	into["sim.migrations"] = float64(s.migrations)
	into["workload.step_share"] = float64(s.stepNs) / float64(s.runNs)
	into["queuing.forecast_solves"] = float64(s.solves)
	into["queuing.forecast_hit_ratio"] = float64(s.hits) / float64(s.hits+s.solves)
}

// placesPerRound is how often a consolidate-sim round repeats the offline
// Place (≈ 0.2 s each) before its ≈ 4 s simulation: the round reports their
// median, so one slow Place does not set the round's throughput.
const placesPerRound = 3

func (f *consFix) round(tr *tracer, parent int32) (*roundStats, error) {
	strat := core.QueuingFFD{Rho: rho, MaxVMsPerPM: maxVMs}
	n := int64(len(f.vms))
	var res *core.Result
	placeNs := make([]float64, placesPerRound)
	allocs := make([]float64, placesPerRound)
	for i := range placeNs {
		res = nil
		runtime.GC()
		m0 := mallocs()
		id := tr.begin(parent, "QueuingFFD.Place", "core")
		t0 := nanos()
		var err error
		res, err = strat.Place(f.vms, f.pms)
		placeNs[i] = float64(nanos() - t0)
		tr.end(id, n)
		allocs[i] = float64(mallocs() - m0)
		if err != nil {
			return nil, err
		}
	}
	if len(res.Unplaced) != 0 {
		return nil, gatef("offline Place left %d VMs unplaced", len(res.Unplaced))
	}
	if v := cloud.CheckReserved(res.Placement, f.table); len(v) != 0 {
		return nil, gatef("offline placement: %d PMs violate Eq. (17), first: %v", len(v), v[0])
	}
	ss, err := simulate(res.Placement, f.table, f.vms, f.sd, f.sz.simIntervals, tr, parent)
	if err != nil {
		return nil, err
	}
	if f.first == nil {
		f.first = ss
	} else if ss.cvrMean != f.first.cvrMean || ss.migrations != f.first.migrations || ss.finalPMs != f.first.finalPMs {
		return nil, gatef("simulated results differ between rounds: cvr %v/%v migrations %d/%d",
			ss.cvrMean, f.first.cvrMean, ss.migrations, f.first.migrations)
	}
	samples := len(ss.intervalNs)
	q := nsQuantilesUs(ss.intervalNs, 0.50, tailQ["consolidate-sim"]) // sorts in place; only the count is used below
	place := median(placeNs)
	st := &roundStats{
		opsPerS:     float64(n) / (place / 1e9),
		p50us:       q[0],
		tailUs:      q[1],
		admitted:    float64(n-int64(len(res.Unplaced))) / float64(n),
		pmsUsed:     float64(res.UsedPMs()),
		allocsPerOp: median(allocs) / float64(n),
		attempted:   n,
		samples:     samples,
		extra:       map[string]float64{"core.place_s": place / 1e9},
	}
	ss.extras(st.extra)
	return st, nil
}
