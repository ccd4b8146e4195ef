// Package gate is the one regression engine behind every CI gate
// (DESIGN.md §9): the modeled sweep (BENCH_baseline.json), host wall
// clock (BENCH_host.json) and calibration drift (BENCH_calib.json).
// Each source maps its records onto ID-keyed gate records with named
// metric values and declares one Policy per metric; Diff compares a
// baseline against a fresh run and reports regressions, improvements,
// unchanged counts, coverage drift and warnings.
package gate

import (
	"fmt"
	"math"
	"strings"
)

// Policy is how one metric's baseline→new change is judged.
type Policy string

// Policies.
const (
	// Relative is a one-sided relative threshold on a lower-is-better
	// value: new/old − 1 above the threshold regresses, below minus the
	// threshold improves. A non-positive baseline that changes is a
	// regression (a value appearing from zero is unboundedly worse, so a
	// hollowed-out baseline must not pass).
	Relative Policy = "relative"
	// Absolute is a threshold on new − old, for values that are already
	// fractions (calibration's |rel err|).
	Absolute Policy = "absolute"
	// NoIncrease fails on any increase, whatever the threshold: for
	// deterministic counts such as allocs/op.
	NoIncrease Policy = "no_increase"
	// Band is a two-sided relative band: a move of more than the
	// threshold in either direction regresses, and nothing improves
	// (fitted constants, where any move is a model change). A
	// non-positive baseline that changes is a regression, as for
	// Relative.
	Band Policy = "band"
)

// Metric names one gated value and the policy it is judged by.
type Metric struct {
	Name      string  `json:"name"`
	Policy    Policy  `json:"policy"`
	Threshold float64 `json:"threshold"`
}

// Record is one gated item: an ID, the values it carries (a metric
// absent from Values is not carried by this side), and whether its
// regressions only warn. WarnOnly marks values measured on variable
// hardware, which must not fail a gate on a different runner.
type Record struct {
	ID       string
	Values   map[string]float64
	WarnOnly bool
}

// Delta is one metric of one record, compared.
type Delta struct {
	ID     string  `json:"id"`
	Metric string  `json:"metric"`
	Policy Policy  `json:"policy"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Change is new − old for Absolute and NoIncrease and new/old − 1
	// otherwise; it is 1 when the baseline is non-positive or either
	// value is not finite.
	Change float64 `json:"change"`
}

// MetricRef names one metric of one record.
type MetricRef struct {
	ID     string `json:"id"`
	Metric string `json:"metric"`
}

// String renders the reference as "<id> <metric>".
func (m MetricRef) String() string { return m.ID + " " + m.Metric }

// Result is a gate's verdict. Deltas and drift lists follow the new
// run's record order, then the metric order of the policy list.
type Result struct {
	Gate         string   `json:"gate"`
	Metrics      []Metric `json:"metrics"`
	Regressions  []Delta  `json:"regressions"`
	Improvements []Delta  `json:"improvements"`
	Unchanged    int      `json:"unchanged"`

	// Coverage drift: IDs in only one run, and metrics one side of a
	// matched record does not carry (a baseline predating a column, or
	// a run that dropped it). Reported so a baseline refresh is never
	// silent; never a failure.
	OnlyInOld       []string    `json:"only_in_old,omitempty"`
	OnlyInNew       []string    `json:"only_in_new,omitempty"`
	MetricOnlyInOld []MetricRef `json:"metric_only_in_old,omitempty"`
	MetricOnlyInNew []MetricRef `json:"metric_only_in_new,omitempty"`

	// Warnings hold regressions of WarnOnly records and anything a
	// source adds, such as environment mismatches. Never a failure.
	Warnings []string `json:"warnings,omitempty"`
}

// Failed reports whether the gate fails: any regression.
func (r Result) Failed() bool { return len(r.Regressions) > 0 }

// judge classifies one change: +1 regression, −1 improvement, 0
// unchanged.
func judge(m Metric, o, n float64) (change float64, verdict int) {
	switch {
	case math.IsNaN(o) || math.IsInf(o, 0) || math.IsNaN(n) || math.IsInf(n, 0):
		return 1, 1
	case o == n:
		return 0, 0
	}
	th := m.Threshold
	switch m.Policy {
	case Absolute:
		change = n - o
	case NoIncrease:
		change, th = n-o, 0
	default:
		if o <= 0 {
			return 1, 1
		}
		change = n/o - 1
	}
	switch {
	case change > th || (m.Policy == Band && change < -th):
		return change, 1
	case change < -th:
		return change, -1
	}
	return change, 0
}

// Diff compares a baseline against a new run. Records match on ID;
// each metric of the policy list that both sides carry is judged by
// its policy, with a negative or NaN threshold clamped to 0 (fail
// closed: a NaN threshold would otherwise pass every change). A NaN or
// ±Inf value on either side is a regression under every policy.
func Diff(name string, old, new []Record, metrics []Metric) Result {
	metrics = append([]Metric(nil), metrics...)
	for i := range metrics {
		if !(metrics[i].Threshold > 0) {
			metrics[i].Threshold = 0
		}
	}
	r := Result{Gate: name, Metrics: metrics}
	oldByID := make(map[string]Record, len(old))
	for _, o := range old {
		oldByID[o.ID] = o
	}
	seen := make(map[string]bool, len(new))
	for _, n := range new {
		seen[n.ID] = true
		o, ok := oldByID[n.ID]
		if !ok {
			r.OnlyInNew = append(r.OnlyInNew, n.ID)
			continue
		}
		for _, m := range metrics {
			ov, inOld := o.Values[m.Name]
			nv, inNew := n.Values[m.Name]
			switch {
			case !inOld && !inNew:
				continue
			case !inNew:
				r.MetricOnlyInOld = append(r.MetricOnlyInOld, MetricRef{n.ID, m.Name})
				continue
			case !inOld:
				r.MetricOnlyInNew = append(r.MetricOnlyInNew, MetricRef{n.ID, m.Name})
				continue
			}
			change, verdict := judge(m, ov, nv)
			d := Delta{ID: n.ID, Metric: m.Name, Policy: m.Policy, Old: ov, New: nv, Change: change}
			switch {
			case verdict > 0 && n.WarnOnly:
				r.Warnings = append(r.Warnings, "not gated (measured hardware varies): "+d.String())
			case verdict > 0:
				r.Regressions = append(r.Regressions, d)
			case verdict < 0:
				r.Improvements = append(r.Improvements, d)
			default:
				r.Unchanged++
			}
		}
	}
	for _, o := range old {
		if !seen[o.ID] {
			r.OnlyInOld = append(r.OnlyInOld, o.ID)
		}
	}
	return r
}

// String renders one delta as a report line.
func (d Delta) String() string {
	change := fmt.Sprintf("%+.2f%%", d.Change*100)
	if d.Policy == Absolute || d.Policy == NoIncrease {
		change = fmt.Sprintf("%+.4g", d.Change)
	}
	return fmt.Sprintf("%-40s %-18s %.4g → %.4g (%s)", d.ID, d.Metric, d.Old, d.New, change)
}

// Summary renders the human-readable gate report.
func (r Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s gate: %d regression(s), %d improvement(s), %d unchanged, %d warning(s)\n",
		r.Gate, len(r.Regressions), len(r.Improvements), r.Unchanged, len(r.Warnings))
	var policies []string
	for _, m := range r.Metrics {
		policies = append(policies, fmt.Sprintf("%s %s %g", m.Name, m.Policy, m.Threshold))
	}
	fmt.Fprintf(&b, "  policies: %s\n", strings.Join(policies, ", "))
	for _, d := range r.Regressions {
		fmt.Fprintf(&b, "  REGRESSION  %s\n", d)
	}
	for _, d := range r.Improvements {
		fmt.Fprintf(&b, "  improvement %s\n", d)
	}
	if len(r.OnlyInOld) > 0 {
		fmt.Fprintf(&b, "  only in baseline: %v\n", r.OnlyInOld)
	}
	if len(r.OnlyInNew) > 0 {
		fmt.Fprintf(&b, "  only in new run: %v\n", r.OnlyInNew)
	}
	if len(r.MetricOnlyInOld) > 0 {
		fmt.Fprintf(&b, "  metric only in baseline: %v\n", r.MetricOnlyInOld)
	}
	if len(r.MetricOnlyInNew) > 0 {
		fmt.Fprintf(&b, "  metric only in new run: %v\n", r.MetricOnlyInNew)
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "  WARNING %s\n", w)
	}
	return b.String()
}
