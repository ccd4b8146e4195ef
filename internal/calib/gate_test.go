package calib

import (
	"math"
	"strings"
	"testing"

	"cross/internal/hostbench"
	"cross/internal/tpusim"
)

func calibRec(id, source string, relFit float64) Record {
	return Record{
		ID: id, Spec: strings.SplitN(id, "/", 2)[0], Source: source,
		MeasuredNs: 1000, PredictedNs: 1000 * (1 + relFit), FittedNs: 1000 * (1 + relFit),
		RelErr: relFit, RelErrFitted: relFit,
	}
}

func baseReport() *Report {
	return &Report{
		Env: hostbench.Environment{GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64", NumCPU: 8, GOMAXPROCS: 8},
		Records: []Record{
			calibRec("TPUv4/ntt_throughput/N4096", SourcePublished, 0.05),
			calibRec("TPUv4/bootstrap_amortized/SetD", SourcePublished, -0.10),
			calibRec("host-cpu/vecaddmod/N8192", SourceHost, 0.08),
		},
		Fits: []SpecFit{
			{Spec: "TPUv4", Source: SourcePublished,
				Fitted: tpusim.Calibration{LaunchOverhead: 1e-5, HBMFraction: 0.5, VMEMFraction: 0.5, NTTEfficiency: 2}},
			{Spec: "host-cpu", Source: SourceHost,
				Fitted: tpusim.Calibration{LaunchOverhead: 1e-7, HBMFraction: 1, VMEMFraction: 1, NTTEfficiency: 1}},
		},
	}
}

// The gate test: injected model drift on a published record must fail
// the gate, and so must a non-finite model error.
func TestDiffGatesInjectedModelDrift(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	// Inject drift: the TPUv4 NTT model error grows 5% → 30%.
	cur.Records[0].RelErrFitted = 0.30
	d := Gate(old, cur, 0.10)
	if !d.Failed() {
		t.Fatal("injected 25-point model-error drift must fail the gate")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].ID != "TPUv4/ntt_throughput/N4096" {
		t.Fatalf("regressions = %+v", d.Regressions)
	}
	if s := d.Summary(); !strings.Contains(s, "REGRESSION") {
		t.Errorf("summary does not flag the regression:\n%s", s)
	}
	cur.Records[0].RelErrFitted = math.NaN()
	if d := Gate(old, cur, 0.10); !d.Failed() {
		t.Error("NaN model error passed the gate")
	}
}

// The same drift on a HOST record must warn, not fail — host ground
// truth moves with the CI machine.
func TestDiffHostDriftWarnsOnly(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Records[2].RelErrFitted = 0.50
	d := Gate(old, cur, 0.10)
	if d.Failed() {
		t.Fatalf("host drift must not fail the gate: %+v", d.Regressions)
	}
	if len(d.Warnings) != 1 || !strings.Contains(d.Warnings[0], "host-cpu/vecaddmod/N8192") {
		t.Fatalf("expected a host-record warning, got %v", d.Warnings)
	}
}

// Error shrinking beyond the threshold is an improvement; within it,
// unchanged.
func TestDiffImprovementAndUnchanged(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Records[1].RelErrFitted = 0.02 // |−0.10| → 0.02: improvement
	d := Gate(old, cur, 0.05)
	if d.Failed() {
		t.Fatalf("unexpected regressions: %+v", d.Regressions)
	}
	if len(d.Improvements) != 1 || d.Improvements[0].ID != "TPUv4/bootstrap_amortized/SetD" {
		t.Fatalf("improvements = %+v", d.Improvements)
	}
	if d.Unchanged != 2+8 { // two records, plus two fits × four constants
		t.Fatalf("unchanged = %d, want 10", d.Unchanged)
	}
}

// Fitted-constant drift on a published spec is deterministic, so it
// gates in both directions; the same drift on the host spec warns.
func TestDiffConstantDrift(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Fits[0].Fitted.NTTEfficiency = 4  // published: 2 → 4
	cur.Fits[0].Fitted.HBMFraction = 0.25 // published: 0.5 → 0.25
	cur.Fits[1].Fitted.LaunchOverhead = 1e-6
	d := Gate(old, cur, 0.10)
	if !d.Failed() {
		t.Fatal("published constant drift must fail the gate")
	}
	var got []string
	for _, r := range d.Regressions {
		got = append(got, r.ID+"."+r.Metric)
	}
	if strings.Join(got, " ") != "fit/TPUv4.hbm_fraction fit/TPUv4.ntt_efficiency" {
		t.Fatalf("regressions = %v, want both TPUv4 constants", got)
	}
	if len(d.Warnings) != 1 || !strings.Contains(d.Warnings[0], "fit/host-cpu") || !strings.Contains(d.Warnings[0], "launch_overhead_s") {
		t.Fatalf("host constant drift must warn: %v", d.Warnings)
	}
}

// A spec fit that appears in or drops out of the report is coverage
// drift, reported in both directions.
func TestGateFitCoverage(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Fits = append(cur.Fits, SpecFit{Spec: "A100-40GB", Source: SourcePublished,
		Fitted: tpusim.Calibration{LaunchOverhead: 1e-6, HBMFraction: 1, VMEMFraction: 1, NTTEfficiency: 1}})
	d := Gate(old, cur, 0.10)
	if d.Failed() || len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "fit/A100-40GB" {
		t.Fatalf("fit only in new run: failed %v, OnlyInNew %v", d.Failed(), d.OnlyInNew)
	}
	cur = baseReport()
	cur.Fits = cur.Fits[1:]
	d = Gate(old, cur, 0.10)
	if d.Failed() || len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "fit/TPUv4" {
		t.Fatalf("fit only in baseline: failed %v, OnlyInOld %v", d.Failed(), d.OnlyInOld)
	}
}

// Environment mismatches surface as warnings through the report diff.
func TestDiffEnvMismatchWarns(t *testing.T) {
	old := baseReport()
	cur := baseReport()
	cur.Env.GoVersion = "go1.24.0"
	d := Gate(old, cur, 0.10)
	if d.Failed() {
		t.Fatal("env mismatch must not fail the gate")
	}
	found := false
	for _, w := range d.Warnings {
		if strings.Contains(w, "go_version") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a go_version warning, got %v", d.Warnings)
	}
}

// Identical reports diff clean, and coverage drift is reported.
func TestDiffCleanAndCoverage(t *testing.T) {
	old := baseReport()
	d := Gate(old, baseReport(), 0.10)
	if d.Failed() || len(d.Improvements) != 0 || d.Unchanged != 3+8 || len(d.Warnings) != 0 {
		t.Fatalf("self-diff not clean: %+v", d)
	}

	cur := baseReport()
	cur.Records = cur.Records[:2]
	cur.Records = append(cur.Records, calibRec("H100/ntt_throughput/N4096", SourcePublished, 0.01))
	d = Gate(old, cur, 0.10)
	if len(d.OnlyInOld) != 1 || len(d.OnlyInNew) != 1 {
		t.Fatalf("coverage drift not reported: %+v", d)
	}
}
