package hostbench

import (
	"math"
	"testing"

	"cross/internal/gate"
)

func rec(id string, ns, allocs float64) Record {
	return Record{ID: id, NsPerOp: ns, AllocsPerOp: allocs}
}

// gateRecs diffs two runs without environment metadata.
func gateRecs(old, new []Record, threshold float64) gate.Result {
	return Gate(File{Records: old}, File{Records: new}, threshold)
}

func TestDiffClassification(t *testing.T) {
	old := []Record{
		rec("a", 100, 0), rec("b", 100, 0), rec("c", 100, 0),
		rec("d", 100, 2), rec("gone", 50, 0),
	}
	cur := []Record{
		rec("a", 110, 0),  // +10% < threshold → unchanged
		rec("b", 160, 0),  // +60% → regression
		rec("c", 100, 1),  // allocs drifted 0→1 → regression despite flat ns
		rec("d", 10, 1),   // faster AND fewer allocs → two improvements
		rec("new", 10, 0), // coverage drift
	}
	d := gateRecs(old, cur, 0.25)
	if !d.Failed() {
		t.Fatal("expected regressions")
	}
	if len(d.Regressions) != 2 || d.Regressions[0].ID+"."+d.Regressions[0].Metric != "b.ns_per_op" ||
		d.Regressions[1].ID+"."+d.Regressions[1].Metric != "c.allocs_per_op" {
		t.Fatalf("regressions = %+v, want b (ns) and c (allocs)", d.Regressions)
	}
	if len(d.Improvements) != 2 || d.Improvements[0].ID != "d" || d.Improvements[1].ID != "d" {
		t.Fatalf("improvements = %+v, want d on both metrics", d.Improvements)
	}
	if d.Unchanged != 4 {
		t.Fatalf("unchanged = %d, want 4 (a on both metrics, b allocs, c ns)", d.Unchanged)
	}
	if len(d.OnlyInOld) != 1 || d.OnlyInOld[0] != "gone" {
		t.Fatalf("onlyInOld = %v", d.OnlyInOld)
	}
	if len(d.OnlyInNew) != 1 || d.OnlyInNew[0] != "new" {
		t.Fatalf("onlyInNew = %v", d.OnlyInNew)
	}
}

func TestDiffAllocsStrictAtZeroThreshold(t *testing.T) {
	// Even with a huge ns threshold, one extra alloc/op must gate.
	d := gateRecs([]Record{rec("k", 100, 0)}, []Record{rec("k", 100, 0.5)}, 10)
	if !d.Failed() {
		t.Fatal("alloc drift must be a regression at any ns threshold")
	}
	// A non-finite measurement is a regression, never unchanged.
	for _, bad := range []Record{rec("k", math.NaN(), 0), rec("k", 100, math.Inf(1))} {
		if d := gateRecs([]Record{rec("k", 100, 0)}, []Record{bad}, 10); !d.Failed() {
			t.Errorf("non-finite %+v passed the gate", bad)
		}
	}
}

func TestDiffZeroBaselineGates(t *testing.T) {
	// A baseline record with NsPerOp <= 0 must not let any new latency
	// pass: a latency appearing from a non-positive baseline is a
	// regression, as in the sweep gate.
	for _, oldNs := range []float64{0, -1} {
		d := gateRecs([]Record{rec("k", oldNs, 0)}, []Record{rec("k", 5000, 0)}, 0.25)
		if !d.Failed() {
			t.Errorf("baseline %g ns → 5000 ns not flagged as regression", oldNs)
		}
		if len(d.Regressions) == 1 && d.Regressions[0].Change != 1 {
			t.Errorf("baseline %g ns: change = %g, want sentinel 1", oldNs, d.Regressions[0].Change)
		}
	}
	// 0 → 0 stays unchanged (matching sweep semantics).
	d := gateRecs([]Record{rec("k", 0, 0)}, []Record{rec("k", 0, 0)}, 0.25)
	if d.Failed() || d.Unchanged != 2 {
		t.Errorf("0 → 0 must be unchanged: %+v", d)
	}
}

func TestDiffIdenticalRunsClean(t *testing.T) {
	rs := []Record{rec("x", 123, 0), rec("y", 456, 3)}
	d := gateRecs(rs, rs, 0.25)
	if d.Failed() || len(d.Improvements) != 0 || d.Unchanged != 4 {
		t.Fatalf("self-diff not clean: %+v", d)
	}
}
