package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLRoundTrip(t *testing.T) {
	events := []Event{
		SolveEvent{Sources: 8, Blocks: 3, CVR: 0.004, Rho: 0.01, Duration: 120 * time.Microsecond},
		SolveEvent{Sources: 5, Blocks: 4, CVR: 0.002, Rho: 0.01, Duration: time.Millisecond, Hetero: true},
		PlacementEvent{VMID: 3, PMID: 1, HostedK: 4, Blocks: 2, LHS: 88.5, RHS: 100, Accepted: true, Reason: ReasonFits},
		PlacementEvent{VMID: 7, PMID: 1, HostedK: 17, Reason: ReasonVMCap},
		StepEvent{Interval: 12, Violations: 2, Migrations: 1, PowerOns: 1, PMsInUse: 9},
		MigrationTraceEvent{Interval: 12, VMID: 3, FromPM: 1, ToPM: 4, PoweredOn: true},
		MigrationTraceEvent{Interval: 25, VMID: 6, FromPM: 2, ToPM: 0, Planned: true},
		ReconsolidateEvent{Interval: 25, Moves: 5, Deferred: 1, ReleasedPMs: 2},
	}
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	if !tr.Enabled() {
		t.Fatal("JSONL tracer reports disabled")
	}
	for _, e := range events {
		tr.Emit(e)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(bytes.NewReader(buf.Bytes()))
	var got []Event
	var lastSeq uint64
	for {
		rec, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq <= lastSeq {
			t.Errorf("sequence numbers not increasing: %d after %d", rec.Seq, lastSeq)
		}
		lastSeq = rec.Seq
		if rec.Time.IsZero() {
			t.Error("record has no timestamp")
		}
		// Decoder returns pointers; deref for comparison against the emitted
		// values.
		got = append(got, reflect.ValueOf(rec.Event).Elem().Interface().(Event))
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if !reflect.DeepEqual(got[i], events[i]) {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeLine([]byte("not json")); err == nil {
		t.Error("garbage line accepted")
	}
	if _, err := DecodeLine([]byte(`{"kind":"martian","event":{}}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := DecodeLine([]byte(`{"kind":"solve","event":{"k":"not a number"}}`)); err == nil {
		t.Error("mistyped payload accepted")
	}
}

func TestDecoderSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Emit(StepEvent{Interval: 1})
	buf.WriteString("\n") // stray blank line
	tr.Emit(StepEvent{Interval: 2})
	dec := NewDecoder(&buf)
	n := 0
	for {
		if _, err := dec.Next(); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("decoded %d events, want 2", n)
	}
}

// TestJSONLConcurrentEmit checks lines never tear under concurrent emitters
// (run with -race for the data-race proof).
func TestJSONLConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Emit(StepEvent{Interval: w*per + i})
			}
		}(w)
	}
	wg.Wait()
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != workers*per {
		t.Fatalf("%d lines, want %d", len(lines), workers*per)
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("torn line: %q", l)
		}
	}
}

func TestNopAndOrNop(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop reports enabled")
	}
	Nop.Emit(StepEvent{}) // must not panic
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) != Nop")
	}
	tr := NewJSONL(io.Discard)
	if OrNop(tr) != Tracer(tr) {
		t.Error("OrNop rewrote a live tracer")
	}
}

func TestMulti(t *testing.T) {
	if got := Multi(); got != Nop {
		t.Error("empty Multi is not Nop")
	}
	if got := Multi(nil, Nop); got != Nop {
		t.Error("Multi of disabled tracers is not Nop")
	}
	var a, b bytes.Buffer
	ta, tb := NewJSONL(&a), NewJSONL(&b)
	if got := Multi(ta, nil); got != Tracer(ta) {
		t.Error("single live tracer not returned directly")
	}
	m := Multi(ta, tb, Nop)
	if !m.Enabled() {
		t.Error("Multi with live members reports disabled")
	}
	m.Emit(StepEvent{Interval: 3})
	if a.Len() == 0 || b.Len() == 0 {
		t.Error("Multi did not fan out to every member")
	}
}

func TestMetricsBridge(t *testing.T) {
	reg := NewRegistry()
	tr := NewMetrics(reg)
	tr.Emit(SolveEvent{Sources: 4, Blocks: 2, Duration: time.Millisecond})
	tr.Emit(PlacementEvent{Accepted: true, Reason: ReasonFits})
	tr.Emit(PlacementEvent{Reason: ReasonOverflow})
	tr.Emit(PlacementEvent{Reason: ReasonVMCap})
	tr.Emit(StepEvent{Interval: 0, Violations: 3, Migrations: 2, PowerOns: 1, PMsInUse: 7})
	tr.Emit(ReconsolidateEvent{Moves: 4, ReleasedPMs: 2})

	s := reg.Snapshot()
	checks := map[string]uint64{
		"mapcal_solves_total":                          1,
		`placement_decisions_total{decision="accept"}`: 1,
		`placement_decisions_total{decision="reject"}`: 2,
		"sim_steps_total":                              1,
		"sim_violations_total":                         3,
		"sim_migrations_total":                         2,
		"sim_power_ons_total":                          1,
		"reconsolidation_runs_total":                   1,
		"reconsolidation_moves_total":                  4,
		"reconsolidation_released_pms_total":           2,
	}
	for name, want := range checks {
		if got := s.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := s.Gauges["sim_pms_in_use"]; got != 7 {
		t.Errorf("sim_pms_in_use = %v, want 7", got)
	}
	if h := s.Histograms["mapcal_solve_duration_seconds"]; h.Count != 1 {
		t.Errorf("solve duration count = %d, want 1", h.Count)
	}
}
