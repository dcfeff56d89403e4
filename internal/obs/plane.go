package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Options configures a Plane. The zero value is usable: a fresh registry, a
// 4096-event flight recorder with no dump sink, one-minute rolling windows,
// and a 500ms gauge sampler.
type Options struct {
	// Registry receives every gauge the plane exports. Nil creates one.
	Registry *telemetry.Registry
	// FlightCap / OnDump / StormThreshold / FlightCooldown configure the
	// flight recorder; see RecorderOptions.
	OnDump         func(Dump)
	FlightCap      int
	StormThreshold int
	FlightCooldown int
	// Windows and WindowPeriod shape every rolling latency window:
	// quantiles cover the last Windows×WindowPeriod. Defaults 12 × 5s.
	Windows      int
	WindowPeriod time.Duration
	// SamplePeriod is the gauge-refresh / runtime-stats cadence of the
	// sampler goroutine started by Start. Default 500ms.
	SamplePeriod time.Duration
	// Probe tunes the streaming burstiness estimators.
	Probe ProbeOptions
}

// rolling quantiles exported per window, with their gauge label values.
var windowQs = []struct {
	q     float64
	label string
}{
	{0.50, "0.5"},
	{0.95, "0.95"},
	{0.99, "0.99"},
}

// quantGauge binds one window×quantile pair to its gauge.
type quantGauge struct {
	win *WindowedTimer
	q   float64
	g   *telemetry.Gauge
}

// Plane is the assembled live observability plane: flight recorder +
// burstiness probes + rolling latency windows + runtime stats, all exporting
// through one telemetry.Registry and one HTTP mux.
//
// A Plane is a telemetry.Tracer: pass it (or a Multi fan-out containing it)
// as a run's tracer and the recorder and probes see every event, and
// simulator StepEvents carrying timings feed the sim_step window. The
// admission-side windows (QueueWait, BatchApply, SnapshotPublish,
// AdmitLatency) are fed directly by placesvc and loadgen.
type Plane struct {
	Registry *telemetry.Registry
	Recorder *FlightRecorder
	Probes   *Probes

	// Rolling latency windows. Quantile gauges
	// <name>_window_seconds{q="..."} refresh on the sampler tick.
	QueueWait       *WindowedTimer // placesvc: submit → commit pickup
	BatchApply      *WindowedTimer // placesvc: whole-batch apply span
	SnapshotPublish *WindowedTimer // placesvc: read-snapshot rebuild+publish
	StepTime        *WindowedTimer // simulator: whole step()
	AdmitLatency    *WindowedTimer // loadgen: end-to-end Arrive call

	quants []quantGauge

	flightEvents  *telemetry.Gauge
	flightDropped *telemetry.Gauge
	flightDumps   *telemetry.Gauge

	goroutines  *telemetry.Gauge
	heapAlloc   *telemetry.Gauge
	heapSys     *telemetry.Gauge
	gcCycles    *telemetry.Gauge
	gcPauseLast *telemetry.Gauge

	samplePeriod time.Duration

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewPlane builds a plane. Call Start to launch the gauge sampler and Close
// when the run finishes.
func NewPlane(o Options) *Plane {
	reg := o.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if o.Windows <= 0 {
		o.Windows = 12
	}
	if o.WindowPeriod <= 0 {
		o.WindowPeriod = 5 * time.Second
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = 500 * time.Millisecond
	}
	p := &Plane{
		Registry: reg,
		Recorder: NewFlightRecorder(RecorderOptions{
			Cap:            o.FlightCap,
			OnDump:         o.OnDump,
			StormThreshold: o.StormThreshold,
			Cooldown:       o.FlightCooldown,
		}),
		Probes:       NewProbes(reg, o.Probe),
		samplePeriod: o.SamplePeriod,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	mkWin := func() *WindowedTimer {
		return NewWindowedTimer(o.Windows, o.WindowPeriod, nil)
	}
	p.QueueWait = mkWin()
	p.BatchApply = mkWin()
	p.SnapshotPublish = mkWin()
	p.StepTime = mkWin()
	p.AdmitLatency = mkWin()

	windows := []struct {
		family string
		help   string
		win    *WindowedTimer
	}{
		{"placesvc_queue_wait_window_seconds", "Rolling quantiles of admission-request queue wait (submit to commit pickup).", p.QueueWait},
		{"placesvc_batch_apply_window_seconds", "Rolling quantiles of the commit's whole-batch apply span.", p.BatchApply},
		{"placesvc_snapshot_publish_window_seconds", "Rolling quantiles of the read-snapshot rebuild and publish span.", p.SnapshotPublish},
		{"sim_step_window_seconds", "Rolling quantiles of whole simulator steps.", p.StepTime},
		{"loadgen_admit_window_seconds", "Rolling quantiles of end-to-end Arrive latency measured by loadgen.", p.AdmitLatency},
	}
	for _, w := range windows {
		reg.Help(w.family, w.help)
		for _, q := range windowQs {
			g := reg.Gauge(telemetry.WithLabels(w.family, "q", q.label))
			p.quants = append(p.quants, quantGauge{win: w.win, q: q.q, g: g})
		}
	}

	reg.Help("obs_flight_events", "Events the flight recorder has seen since start.")
	reg.Help("obs_flight_dropped", "Events evicted from the flight ring (seen minus retained).")
	reg.Help("obs_flight_dumps", "Flight dumps taken, all triggers.")
	p.flightEvents = reg.Gauge("obs_flight_events")
	p.flightDropped = reg.Gauge("obs_flight_dropped")
	p.flightDumps = reg.Gauge("obs_flight_dumps")

	reg.Help("process_goroutines", "Live goroutines, sampled.")
	reg.Help("process_heap_alloc_bytes", "Bytes of allocated heap objects, sampled.")
	reg.Help("process_heap_sys_bytes", "Bytes of heap obtained from the OS, sampled.")
	reg.Help("process_gc_cycles", "Completed GC cycles, sampled.")
	reg.Help("process_gc_pause_last_seconds", "Duration of the most recent GC stop-the-world pause.")
	p.goroutines = reg.Gauge("process_goroutines")
	p.heapAlloc = reg.Gauge("process_heap_alloc_bytes")
	p.heapSys = reg.Gauge("process_heap_sys_bytes")
	p.gcCycles = reg.Gauge("process_gc_cycles")
	p.gcPauseLast = reg.Gauge("process_gc_pause_last_seconds")

	return p
}

// Enabled returns true.
func (p *Plane) Enabled() bool { return true }

// Emit fans the event to the flight recorder and the probes, and routes
// timed StepEvents into the sim-step window.
func (p *Plane) Emit(e telemetry.Event) {
	p.Recorder.Emit(e)
	p.Probes.Emit(e)
	if se, ok := e.(telemetry.StepEvent); ok && se.DurationNs > 0 {
		p.StepTime.ObserveSeconds(float64(se.DurationNs) / 1e9)
	}
}

// ObserveRejections forwards capacity-rejection tallies from paths outside
// the trace stream (placesvc) to the flight recorder's storm trigger.
func (p *Plane) ObserveRejections(n int) { p.Recorder.NoteRejections(n) }

// ObserveSheds forwards admission-policy shed tallies (placesvc's admission
// layer, which also sits outside the trace stream) to the flight recorder's
// storm:shed trigger.
func (p *Plane) ObserveSheds(n int) { p.Recorder.NoteSheds(n) }

// ObserveSkew forwards a shardsvc rebalancer skew detection — inter-shard
// headroom spread beyond the hysteresis band — to the flight recorder's
// storm:skew trigger, dumping the recent event window for post-mortem of
// what drove the imbalance.
func (p *Plane) ObserveSkew() { p.Recorder.NoteSkew() }

// RefreshGauges recomputes every sampled gauge: rolling window quantiles,
// flight-recorder stats, and runtime memory/goroutine stats. The sampler
// calls it on a timer; tests and Close call it directly.
func (p *Plane) RefreshGauges() {
	byWin := make(map[*WindowedTimer]telemetry.HistogramSnapshot, 5)
	for _, qg := range p.quants {
		hs, ok := byWin[qg.win]
		if !ok {
			hs = qg.win.Snapshot()
			byWin[qg.win] = hs
		}
		qg.g.Set(hs.Quantile(qg.q))
	}

	st := p.Recorder.Stats()
	p.flightEvents.Set(float64(st.Total))
	p.flightDropped.Set(float64(st.Dropped))
	p.flightDumps.Set(float64(st.Dumps))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.goroutines.Set(float64(runtime.NumGoroutine()))
	p.heapAlloc.Set(float64(ms.HeapAlloc))
	p.heapSys.Set(float64(ms.HeapSys))
	p.gcCycles.Set(float64(ms.NumGC))
	if ms.NumGC > 0 {
		p.gcPauseLast.Set(float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9)
	}
}

// Start launches the background sampler refreshing gauges every
// SamplePeriod. Idempotent.
func (p *Plane) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.samplePeriod)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					p.RefreshGauges()
				case <-p.stop:
					return
				}
			}
		}()
	})
}

// Close stops the sampler, refreshes gauges one final time, and — when a
// dump sink is attached — takes a final flight dump so every run ends with
// its last events on record.
func (p *Plane) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.startOnce.Do(func() { close(p.done) }) // never started: unblock the wait
		<-p.done
		p.RefreshGauges()
		if sink := p.Recorder.onDump; sink != nil {
			sink(p.Recorder.Snapshot(TriggerFinal))
		}
	})
}

// Mounts returns the HTTP handlers the plane serves beside /metrics: the
// flight-dump endpoint and the pprof suite.
func (p *Plane) Mounts() []telemetry.Mount {
	return []telemetry.Mount{
		{Pattern: "/debug/flight", Handler: p.Recorder.Handler()},
		{Pattern: "/debug/pprof/", Handler: http.HandlerFunc(pprof.Index)},
		{Pattern: "/debug/pprof/cmdline", Handler: http.HandlerFunc(pprof.Cmdline)},
		{Pattern: "/debug/pprof/profile", Handler: http.HandlerFunc(pprof.Profile)},
		{Pattern: "/debug/pprof/symbol", Handler: http.HandlerFunc(pprof.Symbol)},
		{Pattern: "/debug/pprof/trace", Handler: http.HandlerFunc(pprof.Trace)},
	}
}
