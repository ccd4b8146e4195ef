package hostbench

import (
	"strings"
	"testing"
)

// A baseline measured on one CI machine must not gate runs on
// different hardware without a trace: Gate surfaces the mismatch — as
// a warning, never a regression.
func TestDiffFilesWarnsOnEnvMismatch(t *testing.T) {
	recs := []Record{rec("k", 100, 0)}
	base := File{
		Env: Environment{
			GoVersion: "go1.23.0", GOOS: "linux", GOARCH: "amd64",
			NumCPU: 8, GOMAXPROCS: 8, CPUModel: "Old CPU @ 2.0GHz",
		},
		Records: recs,
	}
	cur := base
	cur.Env.CPUModel = "New CPU @ 3.5GHz"
	cur.Env.GOMAXPROCS = 16

	d := Gate(base, cur, 0.25)
	if d.Failed() {
		t.Fatalf("environment drift must not be a regression: %+v", d.Regressions)
	}
	if len(d.Warnings) != 2 {
		t.Fatalf("Warnings = %v, want cpu_model and gomaxprocs", d.Warnings)
	}
	joined := strings.Join(d.Warnings, "\n")
	for _, want := range []string{"cpu_model", "gomaxprocs", "Old CPU", "New CPU"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Warnings missing %q: %v", want, d.Warnings)
		}
	}
	if s := d.Summary(); !strings.Contains(s, "environment mismatch") {
		t.Errorf("Summary does not surface the warnings:\n%s", s)
	}
}

// A baseline with no environment block (zero Environment) must compare
// warning-free against any host.
func TestDiffFilesLegacyBaselineNoWarnings(t *testing.T) {
	recs := []Record{rec("k", 100, 0)}
	d := Gate(File{Records: recs}, File{Env: CurrentEnvironment(), Records: recs}, 0.25)
	if len(d.Warnings) != 0 {
		t.Fatalf("zero baseline env must not warn: %v", d.Warnings)
	}
	if d.Failed() || d.Unchanged != 2 {
		t.Fatalf("records must still gate normally: %+v", d)
	}
}

// CurrentEnvironment must fill every non-best-effort field — the
// metadata the bugfix exists to record.
func TestCurrentEnvironmentPopulated(t *testing.T) {
	e := CurrentEnvironment()
	if e.GoVersion == "" || e.GOOS == "" || e.GOARCH == "" || e.NumCPU < 1 || e.GOMAXPROCS < 1 {
		t.Fatalf("CurrentEnvironment incomplete: %+v", e)
	}
}
