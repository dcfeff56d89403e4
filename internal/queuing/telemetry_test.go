package queuing

import (
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// collectTracer is an enabled tracer accumulating events for assertions.
type collectTracer struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *collectTracer) Enabled() bool { return true }

func (c *collectTracer) Emit(e telemetry.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectTracer) solves(t *testing.T) []telemetry.SolveEvent {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]telemetry.SolveEvent, 0, len(c.events))
	for _, e := range c.events {
		se, ok := e.(telemetry.SolveEvent)
		if !ok {
			t.Fatalf("non-solve event %T emitted", e)
		}
		out = append(out, se)
	}
	return out
}

func TestMapCalTracedMatchesUntraced(t *testing.T) {
	want, err := MapCal(8, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	// Disabled tracer: identical result, nothing emitted anywhere.
	got, err := MapCalTraced(8, 0.01, 0.09, 0.01, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K || got.CVR != want.CVR {
		t.Errorf("nil-tracer result %+v != %+v", got, want)
	}

	tr := &collectTracer{}
	got, err = MapCalTraced(8, 0.01, 0.09, 0.01, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K || got.CVR != want.CVR {
		t.Errorf("traced result %+v != %+v", got, want)
	}
	solves := tr.solves(t)
	if len(solves) != 1 {
		t.Fatalf("emitted %d events, want 1", len(solves))
	}
	se := solves[0]
	if se.Sources != 8 || se.Blocks != want.K || se.CVR != want.CVR || se.Rho != 0.01 {
		t.Errorf("event %+v does not match result %+v", se, want)
	}
	if se.Duration <= 0 {
		t.Error("solve event has no duration")
	}
	if se.Hetero {
		t.Errorf("unexpected flags in %+v", se)
	}

	// Errors must propagate without emitting.
	tr2 := &collectTracer{}
	if _, err := MapCalTraced(0, 0.01, 0.09, 0.01, tr2); err == nil {
		t.Error("invalid k accepted")
	}
	if len(tr2.events) != 0 {
		t.Error("failed solve emitted an event")
	}
}

func TestMapCalHeteroTracedFlagsHetero(t *testing.T) {
	pOns := []float64{0.01, 0.02, 0.01}
	pOffs := []float64{0.09, 0.08, 0.09}
	want, err := MapCalHetero(pOns, pOffs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	got, err := MapCalHeteroTraced(pOns, pOffs, 0.01, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K {
		t.Errorf("traced K = %d, want %d", got.K, want.K)
	}
	solves := tr.solves(t)
	if len(solves) != 1 || !solves[0].Hetero || solves[0].Sources != 3 {
		t.Errorf("hetero solve events = %+v", solves)
	}
}

func TestNewMappingTableTraced(t *testing.T) {
	const d = 6
	want, err := NewMappingTable(d, 0.01, 0.09, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	tr := &collectTracer{}
	got, err := NewMappingTableTraced(d, 0.01, 0.09, 0.01, tr)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= d; k++ {
		if got.Blocks(k) != want.Blocks(k) {
			t.Errorf("Blocks(%d) = %d, want %d", k, got.Blocks(k), want.Blocks(k))
		}
	}
	if solves := tr.solves(t); len(solves) != d {
		t.Errorf("emitted %d solve events, want %d", len(solves), d)
	}
	// Invalid d reuses the untraced error path.
	if _, err := NewMappingTableTraced(0, 0.01, 0.09, 0.01, tr); err == nil {
		t.Error("d = 0 accepted")
	}
}
