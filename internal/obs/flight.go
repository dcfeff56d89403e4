package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Dump triggers, recorded in Dump.Trigger.
const (
	TriggerHTTP      = "http"              // GET /debug/flight
	TriggerFinal     = "final"             // plane Close (end of run)
	TriggerManual    = "manual"            // explicit Snapshot call
	TriggerPMCrash   = "fault:pm_crash"    // FaultEvent pm_crash observed
	TriggerRollback  = "fault:rollback"    // reconsolidation plan rolled back
	TriggerStorm     = "storm:no_capacity" // ErrNoCapacity rejections over threshold
	TriggerShedStorm = "storm:shed"        // admission-policy sheds over threshold
	TriggerSkew      = "storm:skew"        // shard headroom skew breached the rebalance band
)

// Dump is one flight-recorder snapshot: the trigger, capture metadata, and
// the buffered events oldest-first. Each entry of Events is a raw JSONL
// envelope line ({seq, t_unix_ns, kind, event}) identical to what a full
// -trace run writes, so existing trace tooling parses dumps unchanged; use
// ParseDump to get typed records back.
type Dump struct {
	Trigger        string            `json:"trigger"`
	CapturedUnixNs int64             `json:"captured_unix_ns"`
	Cap            int               `json:"cap"`
	TotalEvents    uint64            `json:"total_events"`
	DroppedEvents  uint64            `json:"dropped_events"`
	Events         []json.RawMessage `json:"events"`
}

// RecorderOptions configures a FlightRecorder. The zero value is usable.
type RecorderOptions struct {
	// Cap is the ring capacity in events; default 4096.
	Cap int
	// OnDump receives automatic dumps (fault / rollback / rejection-storm
	// triggered) and the final dump the plane takes on Close. Nil disables
	// automatic dumping; explicit Snapshot and the HTTP handler still work.
	// OnDump is called outside the recorder lock but serially enough in
	// practice (auto dumps are cooldown-limited); it must not call back
	// into the recorder's Emit.
	OnDump func(Dump)
	// StormThreshold is the number of capacity rejections (overflow-reason
	// placement events plus NoteRejections tallies) between dumps that
	// triggers a storm dump. Default 256; negative disables storm dumps.
	StormThreshold int
	// Cooldown is the minimum number of emitted events between two
	// automatic dumps, suppressing dump storms when faults cluster.
	// Default Cap/2.
	Cooldown int
	// Clock overrides the wall clock (tests); nil means time.Now.
	Clock func() time.Time
}

type flightSlot struct {
	seq  uint64
	wall int64
	ev   telemetry.Event
}

// FlightRecorder is a fixed-capacity ring buffer of recent trace events and
// a telemetry.Tracer: wire it (alone or in a telemetry.Multi fan-out) as a
// run's tracer and the last Cap events are always available for post-mortem
// without the cost or volume of full JSONL tracing. Dumps are taken
// automatically on fault events and rejection storms, on demand via
// Snapshot, and over HTTP via Handler.
type FlightRecorder struct {
	mu sync.Mutex

	cap      int
	onDump   func(Dump)
	stormThr int
	cooldown int
	clock    func() time.Time
	buf      []flightSlot
	next     int    // slot receiving the next event
	filled   int    // live slots, ≤ cap
	seq      uint64 // total events ever emitted
	rejects  int    // capacity rejections since the last dump
	sheds    int    // admission-policy sheds since the last dump
	dumps    uint64 // dumps taken (any trigger)
	lastAuto uint64 // seq at the last automatic dump
	haveAuto bool
}

// NewFlightRecorder returns a recorder with the given options.
func NewFlightRecorder(o RecorderOptions) *FlightRecorder {
	if o.Cap <= 0 {
		o.Cap = 4096
	}
	if o.StormThreshold == 0 {
		o.StormThreshold = 256
	}
	if o.Cooldown <= 0 {
		o.Cooldown = o.Cap / 2
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return &FlightRecorder{
		cap:      o.Cap,
		onDump:   o.OnDump,
		stormThr: o.StormThreshold,
		cooldown: o.Cooldown,
		clock:    o.Clock,
		buf:      make([]flightSlot, o.Cap),
	}
}

// Enabled returns true.
func (f *FlightRecorder) Enabled() bool { return true }

// Emit appends the event to the ring, evicting the oldest when full, and
// fires an automatic dump when the event is a dump trigger (PM crash,
// rollback, or the rejection count crossing the storm threshold).
func (f *FlightRecorder) Emit(e telemetry.Event) {
	f.mu.Lock()
	f.seq++
	f.buf[f.next] = flightSlot{seq: f.seq, wall: f.clock().UnixNano(), ev: e}
	f.next = (f.next + 1) % f.cap
	if f.filled < f.cap {
		f.filled++
	}

	trigger := ""
	switch ev := e.(type) {
	case telemetry.FaultEvent:
		if ev.Type == telemetry.FaultPMCrash {
			trigger = TriggerPMCrash
		}
	case telemetry.RollbackEvent:
		trigger = TriggerRollback
	case telemetry.PlacementEvent:
		if !ev.Accepted && ev.Reason == telemetry.ReasonOverflow {
			f.rejects++
			if f.stormThr > 0 && f.rejects >= f.stormThr {
				trigger = TriggerStorm
			}
		}
	}
	f.fireLocked(trigger)
}

// NoteRejections adds out-of-band capacity rejections to the storm counter —
// the placesvc path, whose admission tests do not flow through the trace
// stream — and dumps when the threshold is crossed.
func (f *FlightRecorder) NoteRejections(n int) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	f.rejects += n
	trigger := ""
	if f.stormThr > 0 && f.rejects >= f.stormThr {
		trigger = TriggerStorm
	}
	f.fireLocked(trigger)
}

// NoteSheds adds admission-policy sheds to the shed-storm counter — the
// admission layer sits ahead of the commit queue and emits no trace events — and
// dumps with the storm:shed trigger when the threshold is crossed, mirroring
// NoteRejections / storm:no_capacity. Sheds and capacity rejections count
// separately: a shed storm means the policy is refusing work, a rejection
// storm means Eq. (17) is.
func (f *FlightRecorder) NoteSheds(n int) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	f.sheds += n
	trigger := ""
	if f.stormThr > 0 && f.sheds >= f.stormThr {
		trigger = TriggerShedStorm
	}
	f.fireLocked(trigger)
}

// NoteSkew records that the shardsvc rebalancer observed inter-shard
// headroom skew beyond its hysteresis band and dumps with the storm:skew
// trigger. Unlike rejections and sheds there is no accumulation threshold —
// the rebalancer already debounces (it fires once per skewed round), so each
// note is itself storm evidence; the recorder's cooldown still rate-limits
// the dumps.
func (f *FlightRecorder) NoteSkew() {
	f.mu.Lock()
	f.fireLocked(TriggerSkew)
}

// fireLocked takes an automatic dump for trigger (when set, allowed by the
// cooldown, and a sink is attached), releasing the lock before invoking the
// sink. It always releases f.mu.
func (f *FlightRecorder) fireLocked(trigger string) {
	if trigger == "" || f.onDump == nil || !f.autoAllowedLocked() {
		f.mu.Unlock()
		return
	}
	d := f.dumpLocked(trigger)
	f.lastAuto = f.seq
	f.haveAuto = true
	sink := f.onDump
	f.mu.Unlock()
	sink(d)
}

// autoAllowedLocked reports whether enough events have passed since the last
// automatic dump.
func (f *FlightRecorder) autoAllowedLocked() bool {
	return !f.haveAuto || f.seq-f.lastAuto >= uint64(f.cooldown)
}

// Snapshot captures the current ring contents as a Dump without disturbing
// the buffer. The rejection storm counter resets (the dump recorded the
// storm).
func (f *FlightRecorder) Snapshot(trigger string) Dump {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpLocked(trigger)
}

// dumpLocked builds a Dump oldest-first. Callers hold the lock.
func (f *FlightRecorder) dumpLocked(trigger string) Dump {
	d := Dump{
		Trigger:        trigger,
		CapturedUnixNs: f.clock().UnixNano(),
		Cap:            f.cap,
		TotalEvents:    f.seq,
		DroppedEvents:  f.seq - uint64(f.filled),
		Events:         make([]json.RawMessage, 0, f.filled),
	}
	for i := 0; i < f.filled; i++ {
		slot := f.buf[(f.next-f.filled+i+f.cap)%f.cap]
		line, err := telemetry.EncodeLine(slot.seq, time.Unix(0, slot.wall), slot.ev)
		if err != nil {
			continue // unmarshalable event; drop rather than poison the dump
		}
		d.Events = append(d.Events, json.RawMessage(line))
	}
	f.rejects = 0
	f.sheds = 0
	f.dumps++
	return d
}

// Stats is a point-in-time view of recorder activity, for gauge export.
type Stats struct {
	Total   uint64 // events ever emitted
	Dropped uint64 // events evicted from the ring
	Dumps   uint64 // dumps taken, any trigger
}

// Stats returns activity counters.
func (f *FlightRecorder) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return Stats{
		Total:   f.seq,
		Dropped: f.seq - uint64(f.filled),
		Dumps:   f.dumps,
	}
}

// Handler serves the ring as a JSON Dump on GET — mount it at /debug/flight.
func (f *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		d := f.Snapshot(TriggerHTTP)
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(d)
	})
}

// WriteLine appends the dump as one JSON line — the -flight file format: one
// dump object per line, in capture order.
func (d Dump) WriteLine(w io.Writer) error {
	line, err := json.Marshal(d)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	_, err = w.Write(line)
	return err
}

// ParseDump decodes a Dump (one JSON object, as served by the HTTP handler
// or one line of a -flight file) and its events back into typed records.
func ParseDump(data []byte) (Dump, []telemetry.Record, error) {
	var d Dump
	if err := json.Unmarshal(data, &d); err != nil {
		return Dump{}, nil, fmt.Errorf("obs: bad flight dump: %w", err)
	}
	recs := make([]telemetry.Record, 0, len(d.Events))
	for i, line := range d.Events {
		rec, err := telemetry.DecodeLine(line)
		if err != nil {
			return d, recs, fmt.Errorf("obs: flight dump event %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
	return d, recs, nil
}
