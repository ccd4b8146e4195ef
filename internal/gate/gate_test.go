package gate

import (
	"math"
	"strings"
	"testing"
)

// one diffs a single record carrying one metric and returns its class
// and the delta's change (0 when unchanged).
func one(m Metric, o, n float64) (string, float64) {
	r := Diff("t", []Record{{ID: "x", Values: map[string]float64{m.Name: o}}},
		[]Record{{ID: "x", Values: map[string]float64{m.Name: n}}}, []Metric{m})
	switch {
	case len(r.Regressions) == 1:
		return "regression", r.Regressions[0].Change
	case len(r.Improvements) == 1:
		return "improvement", r.Improvements[0].Change
	case r.Unchanged == 1:
		return "unchanged", 0
	}
	return "?", 0
}

// TestPolicies pins every policy's verdicts, including the corner
// cases: a non-positive baseline regresses unless bit-equal, a
// negative or NaN threshold is clamped to 0, and a NaN or ±Inf value on
// either side regresses under every policy.
func TestPolicies(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rel := Metric{Name: "v", Policy: Relative, Threshold: 0.005}
	abs := Metric{Name: "v", Policy: Absolute, Threshold: 0.10}
	noInc := Metric{Name: "v", Policy: NoIncrease, Threshold: 10}
	band := Metric{Name: "v", Policy: Band, Threshold: 0.10}
	negTh := Metric{Name: "v", Policy: Relative, Threshold: -0.5}
	nanTh := Metric{Name: "v", Policy: Relative, Threshold: nan}
	cases := []struct {
		name       string
		m          Metric
		old, new   float64
		want       string
		wantChange float64
	}{
		{"relative +1%", rel, 100e-6, 101e-6, "regression", 0.01},
		{"relative −1%", rel, 100e-6, 99e-6, "improvement", -0.01},
		{"relative within", rel, 100e-6, 100.2e-6, "unchanged", 0},
		{"relative equal", rel, 42e-6, 42e-6, "unchanged", 0},
		{"relative zero to positive", rel, 0, 1e-6, "regression", 1},
		{"relative zero to zero", rel, 0, 0, "unchanged", 0},
		{"relative negative baseline", rel, -1e-6, 1e-6, "regression", 1},
		{"relative negative equal", rel, -1e-6, -1e-6, "unchanged", 0},
		{"relative NaN new", rel, 1e-3, nan, "regression", 1},
		{"relative NaN old", rel, nan, 1e-3, "regression", 1},
		{"relative +Inf new", rel, 1e-3, inf, "regression", 1},
		{"negative threshold clamped, increase", negTh, 1, 1.0001, "regression", 1e-4},
		{"negative threshold clamped, decrease", negTh, 1, 0.9999, "improvement", -1e-4},
		{"negative threshold clamped, equal", negTh, 1, 1, "unchanged", 0},
		{"NaN threshold clamped, increase", nanTh, 1, 1.0001, "regression", 1e-4},
		{"absolute growth", abs, 0.05, 0.30, "regression", 0.25},
		{"absolute shrink", abs, 0.30, 0.05, "improvement", -0.25},
		{"absolute within", abs, 0.05, 0.10, "unchanged", 0},
		{"absolute NaN new", abs, 0.05, nan, "regression", 1},
		{"absolute −Inf old", abs, math.Inf(-1), 0.05, "regression", 1},
		{"no-increase up, any threshold", noInc, 0, 0.5, "regression", 0.5},
		{"no-increase down", noInc, 2, 1, "improvement", -1},
		{"no-increase equal", noInc, 3, 3, "unchanged", 0},
		{"no-increase NaN new", noInc, 0, nan, "regression", 1},
		{"no-increase +Inf new", noInc, 0, inf, "regression", 1},
		{"band up", band, 2, 4, "regression", 1},
		{"band down", band, 2, 1, "regression", -0.5},
		{"band within", band, 2, 2.1, "unchanged", 0},
		{"band zero baseline", band, 0, 1, "regression", 1},
		{"band NaN new", band, 2, nan, "regression", 1},
		{"band +Inf both", band, inf, inf, "regression", 1},
	}
	for _, tc := range cases {
		got, change := one(tc.m, tc.old, tc.new)
		if got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
		if math.Abs(change-tc.wantChange) > 1e-9 {
			t.Errorf("%s: change %g, want %g", tc.name, change, tc.wantChange)
		}
	}
}

// TestDiffCoverageAndOrder: IDs and metrics on one side only are
// reported as drift, never failed, and every list follows the new
// run's record order.
func TestDiffCoverageAndOrder(t *testing.T) {
	metrics := []Metric{{Name: "a", Policy: Relative}, {Name: "b", Policy: Relative}}
	v := func(a, b float64) map[string]float64 { return map[string]float64{"a": a, "b": b} }
	old := []Record{
		{ID: "gone", Values: v(1, 1)},
		{ID: "p", Values: v(1, 1)},
		{ID: "q", Values: v(1, 1)},
		{ID: "r", Values: map[string]float64{"a": 1}},
		{ID: "s", Values: map[string]float64{"a": 1}},
	}
	cur := []Record{
		{ID: "q", Values: v(2, 2)},
		{ID: "added", Values: v(1, 1)},
		{ID: "p", Values: v(2, 1)},
		{ID: "r", Values: v(1, 1)},
		{ID: "s", Values: map[string]float64{"a": 1}},
	}
	r := Diff("t", old, cur, metrics)
	if !r.Failed() {
		t.Fatal("regressions must fail the gate")
	}
	var order []string
	for _, d := range r.Regressions {
		order = append(order, d.ID+"."+d.Metric)
	}
	if got := strings.Join(order, " "); got != "q.a q.b p.a" {
		t.Errorf("regression order %q, want new-run record order then metric order", got)
	}
	if len(r.OnlyInOld) != 1 || r.OnlyInOld[0] != "gone" || len(r.OnlyInNew) != 1 || r.OnlyInNew[0] != "added" {
		t.Errorf("record drift: old %v new %v", r.OnlyInOld, r.OnlyInNew)
	}
	if len(r.MetricOnlyInNew) != 1 || r.MetricOnlyInNew[0] != (MetricRef{"r", "b"}) || len(r.MetricOnlyInOld) != 0 {
		t.Errorf("metric drift: old %v new %v", r.MetricOnlyInOld, r.MetricOnlyInNew)
	}
	// p.b, r.a and s.a compare; s.b is carried by neither side.
	if r.Unchanged != 3 {
		t.Errorf("unchanged = %d, want 3", r.Unchanged)
	}

	drift := Diff("t", old, append(cur[1:2:2], Record{ID: "r", Values: map[string]float64{"b": 1}}), metrics)
	if drift.Failed() {
		t.Errorf("coverage drift alone must not fail:\n%s", drift.Summary())
	}
	if len(drift.MetricOnlyInOld) != 1 || drift.MetricOnlyInOld[0] != (MetricRef{"r", "a"}) {
		t.Errorf("metric only in old: %v", drift.MetricOnlyInOld)
	}
}

// TestDiffWarnOnly: a warn-only record's regressions become warnings
// and never fail; its improvements are still reported.
func TestDiffWarnOnly(t *testing.T) {
	m := []Metric{{Name: "a", Policy: Absolute, Threshold: 0.1}}
	old := []Record{{ID: "h", Values: map[string]float64{"a": 0.1}, WarnOnly: true}, {ID: "i", Values: map[string]float64{"a": 0.5}, WarnOnly: true}}
	cur := []Record{{ID: "h", Values: map[string]float64{"a": 0.5}, WarnOnly: true}, {ID: "i", Values: map[string]float64{"a": 0.1}, WarnOnly: true}}
	r := Diff("t", old, cur, m)
	if r.Failed() {
		t.Fatalf("warn-only regression failed the gate: %+v", r.Regressions)
	}
	if len(r.Warnings) != 1 || !strings.Contains(r.Warnings[0], "h") {
		t.Errorf("warnings = %v, want one for h", r.Warnings)
	}
	if len(r.Improvements) != 1 || r.Improvements[0].ID != "i" {
		t.Errorf("improvements = %+v, want i", r.Improvements)
	}
}

// TestSummary: the one printer surfaces every section of a verdict.
func TestSummary(t *testing.T) {
	m := []Metric{{Name: "a", Policy: Relative}, {Name: "b", Policy: Relative}}
	old := []Record{{ID: "x", Values: map[string]float64{"a": 1, "b": 1}}, {ID: "y", Values: map[string]float64{"a": 1}}, {ID: "gone"}}
	cur := []Record{{ID: "x", Values: map[string]float64{"a": 2, "b": 0.5}}, {ID: "y", Values: map[string]float64{"b": 1}}, {ID: "added"}}
	r := Diff("demo", old, cur, m)
	r.Warnings = append(r.Warnings, "environment mismatch — goos")
	s := r.Summary()
	for _, want := range []string{"demo gate: 1 regression(s), 1 improvement(s)", "REGRESSION", "improvement", "only in baseline: [gone]",
		"only in new run: [added]", "metric only in baseline: [y a]", "metric only in new run: [y b]", "WARNING environment mismatch"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
