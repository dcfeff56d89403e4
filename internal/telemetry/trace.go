package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Event is one structured trace record. Concrete event types are plain
// JSON-marshallable structs; Kind names the event family and doubles as the
// JSONL envelope discriminator.
type Event interface {
	Kind() string
}

// SolveEvent records one MapCal stationary-distribution solve (Algorithm 1):
// the population k, the resulting block count, and how long the solve took.
// Solver names the solve path: "closed_form" (homogeneous Binomial) or
// "poisson_binomial" (heterogeneous).
type SolveEvent struct {
	Sources  int           `json:"k"`
	Blocks   int           `json:"blocks"`
	CVR      float64       `json:"cvr"`
	Rho      float64       `json:"rho"`
	Duration time.Duration `json:"duration_ns"`
	Hetero   bool          `json:"hetero,omitempty"`
	Solver   string        `json:"solver,omitempty"`
}

// Kind returns "solve".
func (SolveEvent) Kind() string { return "solve" }

// Admission-test outcomes for PlacementEvent.Reason.
const (
	ReasonFits         = "fits"              // Eq. (17) satisfied — VM admitted
	ReasonOverflow     = "capacity_exceeded" // Eq. (17) left side above capacity
	ReasonVMCap        = "vm_cap"            // would exceed the per-PM VM cap d
	ReasonHeteroError  = "hetero_error"      // exact heterogeneous solve failed
	ReasonPeakFallback = "peak_fallback"     // solve failed; admitted under peak provisioning
)

// PlacementEvent records one QueuingFFD admission test (Algorithm 2): the
// candidate VM/PM pair and both sides of the Eq. (17) reservation constraint
//
//	Σ R_b + R_b^i + blockSize·mapping(k+1) ≤ C_j .
//
// Rejections carry the failing Reason; LHS/RHS stay zero when the test was
// decided before the footprint was computed (vm_cap, hetero_error).
type PlacementEvent struct {
	VMID     int     `json:"vm"`
	PMID     int     `json:"pm"`
	HostedK  int     `json:"k"` // VMs on the PM after an accept (|T_j|+1)
	Blocks   int     `json:"blocks,omitempty"`
	LHS      float64 `json:"lhs"`
	RHS      float64 `json:"rhs"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason"`
}

// Kind returns "placement".
func (PlacementEvent) Kind() string { return "placement" }

// PlaceIndexEvent summarises one indexed first-fit run:
// Queries counts VM lookups against the segment-tree index, Probes the exact
// admission tests run on index candidates, and Hits the lookups resolved by
// their very first candidate — i.e. the index named the true first-fit PM
// with no false positive.
type PlaceIndexEvent struct {
	Strategy string `json:"strategy"`
	Queries  uint64 `json:"queries"`
	Probes   uint64 `json:"probes"`
	Hits     uint64 `json:"hits"`
}

// Kind returns "place_index".
func (PlaceIndexEvent) Kind() string { return "place_index" }

// StepEvent records one simulator interval: how many powered-on PMs violated
// capacity, and the migrations and power-ons the dynamic scheduler performed
// in response. The occupancy fields (VMs, OnVMs, OffOn, OnOff) feed the
// streaming burstiness probes in internal/obs; the timing fields are
// measurement-only and never influence simulation state.
type StepEvent struct {
	Interval   int `json:"interval"`
	Violations int `json:"violations"`
	Migrations int `json:"migrations"`
	PowerOns   int `json:"power_ons"`
	PMsInUse   int `json:"pms_in_use"`
	// Shards is the worker count the simulator stepped with; omitted on
	// sequential (single-shard) runs.
	Shards int `json:"shards,omitempty"`
	// VMs and OnVMs count the hosted fleet and how many of its ON-OFF
	// sources were in the ON state this interval.
	VMs   int `json:"vms,omitempty"`
	OnVMs int `json:"on_vms,omitempty"`
	// OffOn / OnOff count the state transitions taken entering this
	// interval (OFF→ON and ON→OFF respectively) — the numerators of the
	// windowed p_on / p_off drift estimators.
	OffOn int `json:"off_on,omitempty"`
	OnOff int `json:"on_off,omitempty"`
	// DurationNs is the wall-clock time of the whole step; ShardMaxNs the
	// slowest shard's measurement pass. Both are zero when untimed.
	DurationNs int64 `json:"duration_ns,omitempty"`
	ShardMaxNs int64 `json:"shard_max_ns,omitempty"`
}

// Kind returns "sim_step".
func (StepEvent) Kind() string { return "sim_step" }

// MigrationTraceEvent records one live migration the simulator executed —
// reactive eviction or a planned reconsolidation move.
type MigrationTraceEvent struct {
	Interval  int  `json:"interval"`
	VMID      int  `json:"vm"`
	FromPM    int  `json:"from_pm"`
	ToPM      int  `json:"to_pm"`
	PoweredOn bool `json:"powered_on,omitempty"`
	Planned   bool `json:"planned,omitempty"`
}

// Kind returns "migration".
func (MigrationTraceEvent) Kind() string { return "migration" }

// ReconsolidateEvent records one periodic re-pack executed by the controller.
// Skipped marks a cycle the controller abandoned gracefully because the
// re-pack could not place the fleet (e.g. crashed PMs removed too much
// capacity); Moves/ReleasedPMs stay zero in that case.
type ReconsolidateEvent struct {
	Interval    int  `json:"interval"`
	Moves       int  `json:"moves"`
	Deferred    int  `json:"deferred"`
	ReleasedPMs int  `json:"released_pms"`
	Skipped     bool `json:"skipped,omitempty"`
}

// Kind returns "reconsolidate".
func (ReconsolidateEvent) Kind() string { return "reconsolidate" }

// Fault-event types for FaultEvent.Type. The first four are injected faults;
// the remainder record the graceful-degradation machinery reacting to them.
const (
	FaultPMCrash           = "pm_crash"           // a PM went down
	FaultMigrationFail     = "migration_fail"     // a migration attempt failed
	FaultMigrationStraggle = "migration_straggle" // a migration ran long
	FaultDemandOvershoot   = "demand_overshoot"   // demand exceeded declared R_p
	FaultPMRecover         = "pm_recover"         // a crashed PM came back
	FaultMigrationRetry    = "migration_retry"    // a failed move was retried
	FaultRetryAbandoned    = "retry_abandoned"    // retries/deadline exhausted
	FaultDegradedPlacement = "degraded_placement" // best-effort placement, Eq. (17) bypassed
)

// FaultEvent records one injected fault or one degradation reaction keyed by
// Type. PMID/VMID/Attempt are populated where meaningful (crashes carry the
// PM, migration faults the VM, source PM and attempt number).
type FaultEvent struct {
	Interval int    `json:"interval"`
	Type     string `json:"type"`
	PMID     int    `json:"pm,omitempty"`
	VMID     int    `json:"vm,omitempty"`
	Attempt  int    `json:"attempt,omitempty"`
}

// Injected reports whether the event records an injected fault (as opposed
// to the degradation machinery reacting to one) — the faults_injected_total
// discriminator.
func (e FaultEvent) Injected() bool {
	switch e.Type {
	case FaultPMCrash, FaultMigrationFail, FaultMigrationStraggle, FaultDemandOvershoot:
		return true
	}
	return false
}

// Kind returns "fault".
func (FaultEvent) Kind() string { return "fault" }

// EvacuationEvent records the emergency re-placement of a crashed PM's VMs:
// how many were evacuated, how many only found a degraded (best-effort)
// host, and how many were stranded with no up PM at all.
type EvacuationEvent struct {
	Interval int `json:"interval"`
	PMID     int `json:"pm"`
	VMs      int `json:"vms"`
	Degraded int `json:"degraded,omitempty"`
	Stranded int `json:"stranded,omitempty"`
}

// Kind returns "evacuation".
func (EvacuationEvent) Kind() string { return "evacuation" }

// RollbackEvent records a reconsolidation plan that failed mid-execution and
// was rolled back: the staged moves were reversed and the placement restored
// to its pre-plan state instead of aborting the run.
type RollbackEvent struct {
	Interval   int    `json:"interval"`
	RolledBack int    `json:"rolled_back_moves"`
	Reason     string `json:"reason"`
}

// Kind returns "rollback".
func (RollbackEvent) Kind() string { return "rollback" }

// Tracer receives trace events. Implementations must be safe for concurrent
// Emit calls. Instrumented code guards event construction with Enabled, so a
// disabled tracer costs one branch per site.
type Tracer interface {
	// Enabled reports whether Emit does anything; call sites skip building
	// events when it returns false.
	Enabled() bool
	// Emit records one event.
	Emit(Event)
}

// Nop is the disabled tracer: Enabled is false and Emit discards.
var Nop Tracer = nopTracer{}

type nopTracer struct{}

func (nopTracer) Enabled() bool { return false }
func (nopTracer) Emit(Event)    {}

// OrNop normalises a possibly-nil tracer so call sites can guard with a plain
// method call.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop
	}
	return t
}

// envelope is the JSONL wire format: one object per line carrying a sequence
// number, the emit wall-clock time, the event kind, and the typed payload.
type envelope struct {
	Seq   uint64          `json:"seq"`
	Time  int64           `json:"t_unix_ns"`
	Kind  string          `json:"kind"`
	Event json.RawMessage `json:"event"`
}

// EncodeLine renders one event as a JSONL envelope line (no trailing
// newline): the same wire format JSONL writes and DecodeLine parses. It is
// the building block for alternative trace sinks — the obs flight recorder
// serialises its ring through it so dumps stay line-compatible with full
// traces.
func EncodeLine(seq uint64, t time.Time, e Event) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Seq:   seq,
		Time:  t.UnixNano(),
		Kind:  e.Kind(),
		Event: payload,
	})
}

// JSONL writes events as JSON lines. It is safe for concurrent use; lines
// from concurrent emitters interleave whole, never torn. Write errors are
// sticky and reported by Err (Emit cannot fail loudly mid-run).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	seq uint64
	err error
}

// NewJSONL returns a tracer writing one JSON object per line to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Enabled returns true.
func (t *JSONL) Enabled() bool { return true }

// Emit writes the event as one line.
func (t *JSONL) Emit(e Event) {
	payload, err := json.Marshal(e)
	if err != nil {
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.seq++
	t.err = t.enc.Encode(envelope{
		Seq:   t.seq,
		Time:  time.Now().UnixNano(),
		Kind:  e.Kind(),
		Event: payload,
	})
}

// Err returns the first write or marshal error, if any.
func (t *JSONL) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Record is one decoded JSONL line: the envelope metadata plus the typed
// event.
type Record struct {
	Seq   uint64
	Time  time.Time
	Event Event
}

// DecodeLine parses one JSONL trace line back into its typed event.
func DecodeLine(line []byte) (Record, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, fmt.Errorf("telemetry: bad trace line: %w", err)
	}
	var ev Event
	switch env.Kind {
	case "solve":
		ev = &SolveEvent{}
	case "placement":
		ev = &PlacementEvent{}
	case "place_index":
		ev = &PlaceIndexEvent{}
	case "sim_step":
		ev = &StepEvent{}
	case "migration":
		ev = &MigrationTraceEvent{}
	case "reconsolidate":
		ev = &ReconsolidateEvent{}
	case "fault":
		ev = &FaultEvent{}
	case "evacuation":
		ev = &EvacuationEvent{}
	case "rollback":
		ev = &RollbackEvent{}
	default:
		return Record{}, fmt.Errorf("telemetry: unknown event kind %q", env.Kind)
	}
	if err := json.Unmarshal(env.Event, ev); err != nil {
		return Record{}, fmt.Errorf("telemetry: bad %s payload: %w", env.Kind, err)
	}
	return Record{Seq: env.Seq, Time: time.Unix(0, env.Time), Event: ev}, nil
}

// Decoder streams Records out of a JSONL trace.
type Decoder struct {
	sc *bufio.Scanner
}

// NewDecoder reads JSONL trace lines from r. Lines up to 1 MiB are accepted.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &Decoder{sc: sc}
}

// Next returns the next record, or io.EOF when the trace is exhausted.
func (d *Decoder) Next() (Record, error) {
	for d.sc.Scan() {
		line := d.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		return DecodeLine(line)
	}
	if err := d.sc.Err(); err != nil {
		return Record{}, err
	}
	return Record{}, io.EOF
}

// ReadTraceFile decodes an entire JSONL trace file into records — the
// convenience path for post-run analysis and tests.
func ReadTraceFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := NewDecoder(f)
	var out []Record
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// multi fans one event stream out to several tracers.
type multi struct {
	tracers []Tracer
}

// Multi combines tracers; nil and disabled entries are dropped. It returns
// Nop when nothing remains and the sole tracer when only one does.
func Multi(tracers ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil && t.Enabled() {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return Nop
	case 1:
		return kept[0]
	}
	return multi{tracers: kept}
}

// Enabled returns true (disabled members were dropped at construction).
func (m multi) Enabled() bool { return true }

// Emit forwards to every member.
func (m multi) Emit(e Event) {
	for _, t := range m.tracers {
		t.Emit(e)
	}
}
