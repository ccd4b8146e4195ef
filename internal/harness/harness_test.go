package harness

import (
	"strings"
	"testing"

	"cross/internal/hostbench"
)

func TestAllReportsRenderWithoutViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("full report regeneration is slow")
	}
	reports := AllReports()
	if len(reports) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(reports))
	}
	for _, r := range reports {
		if r.ID == "" || r.Title == "" || r.Body == "" {
			t.Errorf("%s: incomplete report", r.ID)
		}
		if strings.Contains(r.Notes, "VIOLATED") {
			t.Errorf("%s: shape check failed: %s", r.ID, r.Notes)
		}
		if !strings.Contains(r.String(), r.Title) {
			t.Errorf("%s: String() missing title", r.ID)
		}
	}
}

func TestReportByID(t *testing.T) {
	for _, id := range []string{"Table V", "tablev", "Fig 11b", "fig11b", "TABLE X"} {
		if _, ok := ReportByID(id); !ok {
			t.Errorf("ReportByID(%q) not found", id)
		}
	}
	if _, ok := ReportByID("Table Z"); ok {
		t.Error("found nonexistent report")
	}
	ids := IDs()
	if len(ids) != 16 {
		t.Errorf("IDs() returned %d entries", len(ids))
	}
}

func TestReportByIDUnknownHandling(t *testing.T) {
	// Unknown identifiers — including near-misses, empty strings, and
	// normalisation edge cases — must return ok=false and a zero
	// Report, never panic or fuzzy-match.
	for _, id := range []string{"", "table", "Table", "V", "Table VZ", "fig", "  ", "Core", "scaling core"} {
		r, ok := ReportByID(id)
		if ok {
			t.Errorf("ReportByID(%q) unexpectedly found %q", id, r.ID)
			continue
		}
		if r.ID != "" || r.Title != "" || r.Body != "" || r.Notes != "" {
			t.Errorf("ReportByID(%q): non-zero report on miss: %+v", id, r)
		}
	}
	// Normalisation strips spaces and dots but must not ignore other
	// characters.
	if _, ok := ReportByID("Table. V"); !ok {
		t.Error("dot/space normalisation regressed")
	}
	if _, ok := ReportByID("Table-V"); ok {
		t.Error("hyphenated ID should not match")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := newTable("a", "bb")
	tb.row("1", "2")
	tb.row("333", "4")
	s := tb.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "333") {
		t.Error("table formatting broken")
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean(4, 9); g < 5.9 || g > 6.1 {
		t.Errorf("geomean(4,9) = %f", g)
	}
	if g := geomean(0, 0); g != 0 {
		t.Errorf("geomean of zeros = %f", g)
	}
	if g := geomean(5, 0); g != 5 {
		t.Errorf("geomean should skip zeros, got %f", g)
	}
}

func TestIndividualReportsFast(t *testing.T) {
	// The cheap reports run even in -short mode.
	for _, f := range []func() Report{Fig5, TableV, TableVI, Fig12} {
		r := f()
		if strings.Contains(r.Notes, "VIOLATED") {
			t.Errorf("%s: %s", r.ID, r.Notes)
		}
	}
}

// Fig 14 prices each category from a named hostbench kernel; a kernel
// without a usable sample must fail the lookup rather than price its
// category at zero.
func TestFig14UnitLookupFailsOnMissingKernel(t *testing.T) {
	var samples []hostbench.Sample
	for i, k := range fig14Kernels {
		samples = append(samples, hostbench.Sample{Kernel: k, Ns: []float64{float64(10 + i), float64(5 + i)}})
	}
	unit, err := unitCosts(samples, fig14Kernels...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range fig14Kernels {
		if unit[k] != float64(5+i) {
			t.Errorf("%s: unit = %v, want the best sample %d", k, unit[k], 5+i)
		}
	}
	if _, err := unitCosts(samples[1:], fig14Kernels...); err == nil || !strings.Contains(err.Error(), fig14Kernels[0]) {
		t.Errorf("missing %s: err = %v, want an error naming it", fig14Kernels[0], err)
	}
	if _, err := unitCosts(samples, "no_such_kernel"); err == nil {
		t.Error("an unknown kernel name must fail the lookup")
	}
	samples[0].Ns = nil
	if _, err := unitCosts(samples, fig14Kernels...); err == nil {
		t.Error("a sample without timings must fail the lookup")
	}
}
