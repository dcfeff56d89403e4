package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCVRMeterBasics(t *testing.T) {
	m := NewCVRMeter()
	if m.CVR(0) != 0 {
		t.Error("unobserved PM should have CVR 0")
	}
	for i := 0; i < 100; i++ {
		m.Observe(0, i < 5) // 5 violations in 100 steps
		m.Observe(1, false)
	}
	if got := m.CVR(0); got != 0.05 {
		t.Errorf("CVR(0) = %v, want 0.05", got)
	}
	if got := m.CVR(1); got != 0 {
		t.Errorf("CVR(1) = %v, want 0", got)
	}
	if pms := m.PMs(); len(pms) != 2 || pms[0] != 0 || pms[1] != 1 {
		t.Errorf("PMs = %v", pms)
	}
	if got := m.Max(); got != 0.05 {
		t.Errorf("Max = %v", got)
	}
	if got := m.Mean(); got != 0.025 {
		t.Errorf("Mean = %v", got)
	}
	if all := m.All(); all[0] != 0.05 || all[1] != 0 {
		t.Errorf("All = %v", all)
	}
	if vals := m.Values(); len(vals) != 2 || vals[0] != 0.05 {
		t.Errorf("Values = %v", vals)
	}
}

func TestCVRMeterEmptyMean(t *testing.T) {
	m := NewCVRMeter()
	if m.Mean() != 0 || m.Max() != 0 {
		t.Error("empty meter should give zero aggregates")
	}
}

func TestCVRMeterOverThreshold(t *testing.T) {
	m := NewCVRMeter()
	for i := 0; i < 100; i++ {
		m.Observe(0, i < 2)  // CVR 0.02
		m.Observe(1, i < 1)  // CVR 0.01
		m.Observe(2, i < 50) // CVR 0.5
	}
	over := m.OverThreshold(0.01)
	if len(over) != 2 || over[0] != 0 || over[1] != 2 {
		t.Errorf("OverThreshold = %v, want [0 2]", over)
	}
	if len(m.OverThreshold(0.9)) != 0 {
		t.Error("nothing should exceed 0.9")
	}
}

func TestCVRMeterAddEqualsObserve(t *testing.T) {
	// Handing over counts in bulk must be indistinguishable from observing
	// the same intervals one at a time — including a never-violated PM.
	one, bulk := NewCVRMeter(), NewCVRMeter()
	for i := 0; i < 40; i++ {
		one.Observe(7, i%8 == 0)
		one.Observe(2, false)
	}
	bulk.Add(7, 40, 5)
	bulk.Add(2, 40, 0)
	if !reflect.DeepEqual(one, bulk) {
		t.Errorf("Add built %+v, Observe built %+v", bulk, one)
	}
	if steps, viol := bulk.Counts(7); steps != 40 || viol != 5 {
		t.Errorf("Counts(7) = %d, %d, want 40, 5", steps, viol)
	}
	if steps, viol := bulk.Counts(99); steps != 0 || viol != 0 {
		t.Errorf("Counts of an unobserved PM = %d, %d", steps, viol)
	}
}

func TestCVRMeterResetAndMerge(t *testing.T) {
	m := NewCVRMeter()
	for i := 0; i < 10; i++ {
		m.Observe(0, i < 5)
	}
	m.Reset()
	if len(m.PMs()) != 0 || m.CVR(0) != 0 || m.Max() != 0 {
		t.Error("Reset left observations behind")
	}
	m.Observe(0, true) // meter must stay usable after Reset
	if m.CVR(0) != 1 {
		t.Errorf("post-Reset CVR = %v, want 1", m.CVR(0))
	}

	// Two shards observing disjoint interval ranges of the same fleet.
	a, b := NewCVRMeter(), NewCVRMeter()
	for i := 0; i < 50; i++ {
		a.Observe(1, i < 5) // 5/50
		a.Observe(2, false)
		b.Observe(1, i < 10) // 10/50
		b.Observe(3, i < 1)
	}
	a.Merge(b)
	if got := a.CVR(1); got != 15.0/100 {
		t.Errorf("merged CVR(1) = %v, want 0.15", got)
	}
	if got := a.CVR(3); got != 1.0/50 {
		t.Errorf("merged CVR(3) = %v, want 0.02", got)
	}
	if pms := a.PMs(); len(pms) != 3 {
		t.Errorf("merged PMs = %v, want 3 ids", pms)
	}
	// The source shard must be untouched.
	if got := b.CVR(1); got != 0.2 {
		t.Errorf("source shard mutated: CVR(1) = %v", got)
	}
	a.Merge(nil) // no-op, must not panic
	if got := a.CVR(1); got != 0.15 {
		t.Errorf("nil merge changed state: %v", got)
	}
}

func TestTrialStatsResetAndMerge(t *testing.T) {
	a := NewTrialStats("pms")
	for _, v := range []float64{40, 42} {
		a.Add(v)
	}
	b := NewTrialStats("pms-shard2")
	for _, v := range []float64{44, 46} {
		b.Add(v)
	}
	a.Merge(b)
	if a.Trials() != 4 {
		t.Errorf("merged Trials = %d, want 4", a.Trials())
	}
	if s := a.Summary(); s.Mean != 43 || s.Min != 40 || s.Max != 46 {
		t.Errorf("merged Summary = %+v", s)
	}
	if a.Name() != "pms" {
		t.Errorf("receiver name lost: %q", a.Name())
	}
	if b.Trials() != 2 {
		t.Error("source accumulator mutated by Merge")
	}
	a.Merge(nil)
	if a.Trials() != 4 {
		t.Error("nil merge changed state")
	}

	a.Reset()
	if a.Trials() != 0 || a.Name() != "pms" {
		t.Errorf("Reset: Trials=%d Name=%q", a.Trials(), a.Name())
	}
	a.Add(7) // usable after Reset
	if s := a.Summary(); s.N != 1 || s.Mean != 7 {
		t.Errorf("post-Reset Summary = %+v", s)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("Summary = %+v", s)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	if math.Abs(s.StdDev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("StdDev = %v", s.StdDev)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
	one := Summarize([]float64{3})
	if one.StdDev != 0 || one.Mean != 3 || one.Min != 3 || one.Max != 3 {
		t.Errorf("singleton summary = %+v", one)
	}
}

func TestTrialStats(t *testing.T) {
	ts := NewTrialStats("migrations")
	if ts.Name() != "migrations" {
		t.Error("name lost")
	}
	for _, v := range []float64{10, 14, 12} {
		ts.Add(v)
	}
	if ts.Trials() != 3 {
		t.Errorf("Trials = %d", ts.Trials())
	}
	s := ts.Summary()
	if s.Mean != 12 || s.Min != 10 || s.Max != 14 {
		t.Errorf("Summary = %+v", s)
	}
	str := ts.String()
	if !strings.Contains(str, "migrations") || !strings.Contains(str, "12.00") {
		t.Errorf("String = %q", str)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries("pms")
	if ts.Name() != "pms" || ts.Len() != 0 || ts.Last() != 0 {
		t.Error("empty series wrong")
	}
	for i := 0; i < 10; i++ {
		ts.Append(i, float64(i))
	}
	if ts.Len() != 10 {
		t.Errorf("Len = %d", ts.Len())
	}
	step, val := ts.At(3)
	if step != 3 || val != 3 {
		t.Errorf("At(3) = %d, %v", step, val)
	}
	if ts.Last() != 9 {
		t.Errorf("Last = %v", ts.Last())
	}
	if ts.Sum() != 45 {
		t.Errorf("Sum = %v", ts.Sum())
	}
	vals := ts.Values()
	vals[0] = 99
	if ts.values[0] != 0 {
		t.Error("Values returned internal storage")
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries("m")
	for i := 0; i < 10; i++ {
		ts.Append(i, 1)
	}
	b := ts.Buckets(5)
	if len(b) != 5 {
		t.Fatalf("buckets = %v", b)
	}
	for i, v := range b {
		if v != 2 {
			t.Errorf("bucket %d = %v, want 2", i, v)
		}
	}
	// Remainder absorbed by last bucket: 10 values into 3 buckets of 3.
	b3 := ts.Buckets(3)
	if len(b3) != 3 || b3[0] != 3 || b3[1] != 3 || b3[2] != 4 {
		t.Errorf("Buckets(3) = %v", b3)
	}
	if ts.Buckets(0) != nil {
		t.Error("zero buckets should give nil")
	}
	empty := NewTimeSeries("e")
	if empty.Buckets(3) != nil {
		t.Error("empty series should give nil buckets")
	}
	// More buckets than points collapses to one value per point.
	if got := ts.Buckets(100); len(got) != 10 {
		t.Errorf("Buckets(100) length = %d", len(got))
	}
}

func TestTimeSeriesBucketsEdges(t *testing.T) {
	// numBuckets > Len: clamped so each bucket holds exactly one observation,
	// in order.
	ts := NewTimeSeries("m")
	for i := 0; i < 3; i++ {
		ts.Append(i, float64(i+1))
	}
	got := ts.Buckets(7)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Buckets(7) on 3 points = %v, want [1 2 3]", got)
	}

	// Len not divisible by numBuckets: 7 points into 4 buckets of size 1 with
	// the final bucket absorbing the 3-point remainder.
	ts7 := NewTimeSeries("m7")
	for i := 0; i < 7; i++ {
		ts7.Append(i, 1)
	}
	b := ts7.Buckets(4)
	if len(b) != 4 || b[0] != 1 || b[1] != 1 || b[2] != 1 || b[3] != 4 {
		t.Errorf("Buckets(4) on 7 points = %v, want [1 1 1 4]", b)
	}

	// Single bucket collects the whole series.
	if one := ts7.Buckets(1); len(one) != 1 || one[0] != 7 {
		t.Errorf("Buckets(1) = %v, want [7]", one)
	}

	// Negative bucket counts behave like zero.
	if ts7.Buckets(-3) != nil {
		t.Error("negative bucket count should give nil")
	}

	// Defensive-copy contract: mutating a returned slice must not leak into
	// the series or later calls.
	first := ts7.Buckets(4)
	first[0] = 999
	if again := ts7.Buckets(4); again[0] != 1 {
		t.Errorf("Buckets shares storage across calls: %v", again)
	}
	if ts7.Sum() != 7 {
		t.Errorf("mutating bucket slice changed the series: Sum = %v", ts7.Sum())
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Figure 5(a)", "strategy", "pms", "ratio")
	tab.AddRow("QUEUE", 42, 0.7)
	tab.AddRow("RP", 60, 1.0)
	if tab.NumRows() != 2 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
	out := tab.String()
	for _, want := range []string{"Figure 5(a)", "strategy", "QUEUE", "42", "0.700", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Errorf("expected 5 lines, got %d:\n%s", len(lines), out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow(1)
	if strings.HasPrefix(tab.String(), "\n") {
		t.Error("untitled table should not start with a blank line")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty sparkline should be empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Errorf("sparkline rune count = %d", len([]rune(s)))
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[3] != '█' {
		t.Errorf("sparkline extremes wrong: %s", s)
	}
	flat := Sparkline([]float64{5, 5, 5})
	for _, r := range flat {
		if r != '▁' {
			t.Errorf("flat series should render minimum ticks: %s", flat)
		}
	}
}

// Property: Summarize is order-invariant and bounded by min/max.
func TestPropSummarizeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		s := Summarize(vals)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		shuffled := append([]float64(nil), vals...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		s2 := Summarize(shuffled)
		return math.Abs(s.Mean-s2.Mean) < 1e-9 && s.Min == s2.Min && s.Max == s2.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: bucket sums preserve the series total.
func TestPropBucketsPreserveSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := NewTimeSeries("x")
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			ts.Append(i, float64(rng.Intn(10)))
		}
		buckets := ts.Buckets(1 + rng.Intn(12))
		sum := 0.0
		for _, b := range buckets {
			sum += b
		}
		return math.Abs(sum-ts.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
