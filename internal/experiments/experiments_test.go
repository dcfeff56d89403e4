package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// smallOptions keeps experiment runs fast in tests.
func smallOptions(buf *bytes.Buffer) Options {
	return Options{
		Out:          buf,
		Seed:         42,
		VMCounts:     []int{30, 60},
		Trials:       3,
		Intervals:    60,
		SimIntervals: 400,
		TraceLen:     100,
	}
}

func TestOptionsDefaults(t *testing.T) {
	var buf bytes.Buffer
	o, err := Options{Out: &buf}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Rho != 0.01 || o.D != 16 || o.POn != 0.01 || o.POff != 0.09 {
		t.Errorf("paper defaults wrong: %+v", o)
	}
	if o.Trials != 10 || o.Intervals != 100 || o.Delta != 0.3 {
		t.Errorf("scale defaults wrong: %+v", o)
	}
	if len(o.VMCounts) == 0 {
		t.Error("VMCounts default missing")
	}
}

func TestOptionsValidation(t *testing.T) {
	var buf bytes.Buffer
	cases := []Options{
		{},                      // missing Out
		{Out: &buf, Rho: 1.5},   // bad rho
		{Out: &buf, D: -1},      // bad d
		{Out: &buf, Trials: -1}, // bad trials
		{Out: &buf, Delta: 1.0}, // bad delta
		{Out: &buf, VMCounts: []int{0}},
		{Out: &buf, TraceLen: -1},
	}
	for i, c := range cases {
		if _, err := c.withDefaults(); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestListCoversAllArtifacts(t *testing.T) {
	want := []string{"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "tab1", "ablate", "admissioncvr", "churn", "energy", "faultcvr", "recon", "validate"}
	got := List()
	if len(got) != len(want) {
		t.Fatalf("List has %d experiments, want %d", len(got), len(want))
	}
	for i, id := range want {
		if got[i].ID != id {
			t.Errorf("List[%d] = %s, want %s", i, got[i].ID, id)
		}
		if got[i].Description == "" {
			t.Errorf("%s has no description", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", smallOptions(&buf)); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if err := Run("fig1", Options{}); err == nil {
		t.Error("missing Out accepted")
	}
}

func TestFig1(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig1", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"provisioning for peak", "provisioning for normal", "spikes:", "R_p=20"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTab1(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("tab1", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Rb=Re", "Rb>Re", "Rb<Re", "400", "3200", "2400"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab1 output missing %q:\n%s", want, out)
		}
	}
	// 7 data rows exactly.
	if got := strings.Count(out, "\n"); got < 9 {
		t.Errorf("tab1 too short: %d lines", got)
	}
}

func TestFig5QualitativeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig5", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5(a)", "Figure 5(b)", "Figure 5(c)", "QUEUE", "RP", "RB", "saving"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig5 output missing %q", want)
		}
	}
}

func TestFig6QualitativeShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig6", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "QUEUE") || !strings.Contains(out, "RB") {
		t.Error("fig6 output missing strategies")
	}
	if strings.Count(out, "Figure 6") != 3 {
		t.Error("fig6 should print one table per pattern")
	}
}

func TestFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig7", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 7", "n=30", "n=60", "32"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig8", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"requests per interval", "normal intervals", "400 users"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig8 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig9(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig9", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 9(a)", "Figure 9(b)", "QUEUE", "RB-EX", "cycle migration"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 output missing %q", want)
		}
	}
	if strings.Count(out, "Figure 9(a)") != 3 {
		t.Error("fig9 should print one panel pair per pattern")
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig10", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 10", "QUEUE", "RB-EX", "events per bucket"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig10 output missing %q:\n%s", want, out)
		}
	}
}

func TestRunAll(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range List() {
		if !strings.Contains(out, "=== "+e.ID) {
			t.Errorf("RunAll output missing header for %s", e.ID)
		}
	}
}

func TestAblate(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("ablate", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Ablation", "exact hetero", "SBP", "CONV", "RP", "RB"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablate output missing %q", want)
		}
	}
}

func TestEnergy(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("energy", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Energy over", "kWh", "QUEUE", "RB-EX"} {
		if !strings.Contains(out, want) {
			t.Errorf("energy output missing %q", want)
		}
	}
	if strings.Count(out, "Energy over") != 3 {
		t.Error("energy should print one table per pattern")
	}
}

func TestChurn(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("churn", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Churn", "arrivals", "rejected", "QUEUE", "RB-EX"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}
}

func TestAdmissionCVR(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("admissioncvr", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Admission policy", "always-admit", "occupancy", "QUEUE", "RP", "RB", "rejected-frac", "shed"} {
		if !strings.Contains(out, want) {
			t.Errorf("admissioncvr output missing %q:\n%s", want, out)
		}
	}
	// Shed-determinism contract: a fixed seed and a fixed policy replay the
	// whole table — shed counts included — bit-identically.
	var buf2 bytes.Buffer
	if err := Run("admissioncvr", smallOptions(&buf2)); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Error("admissioncvr not deterministic across runs with the same seed")
	}
}

func TestValidate(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("validate", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Validation", "analytic CVR", "simulated CVR", "worst"} {
		if !strings.Contains(out, want) {
			t.Errorf("validate output missing %q", want)
		}
	}
	// The analytic and simulated values must agree tightly.
	var worst float64
	lines := strings.Split(out, "\n")
	for _, line := range lines {
		if strings.HasPrefix(line, "worst ") {
			if _, err := fmt.Sscanf(line, "worst |analytic − simulated| across the grid: %f", &worst); err != nil {
				t.Fatalf("cannot parse worst line %q: %v", line, err)
			}
		}
	}
	if worst > 0.01 {
		t.Errorf("worst analytic/simulated gap %v too large", worst)
	}
}

func TestRecon(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("recon", smallOptions(&buf)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Reconsolidation", "unmanaged", "reactive", "recon"} {
		if !strings.Contains(out, want) {
			t.Errorf("recon output missing %q:\n%s", want, out)
		}
	}
}
