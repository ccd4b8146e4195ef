package sweep

import "cross/internal/gate"

// Gate compares a fresh sweep against a baseline (BENCH_baseline.json):
// total_s and overlapped_s each regress when they grow by more than
// the fractional threshold (0.005 = 0.5%, the CI gate). A zero
// overlapped_s means the record does not carry the column (a baseline
// predating it), so a column on one side only is metric coverage
// drift, never a zero-baseline regression.
func Gate(old, new []Record, threshold float64) gate.Result {
	return gate.Diff("sweep", gateRecords(old), gateRecords(new), []gate.Metric{
		{Name: "total_s", Policy: gate.Relative, Threshold: threshold},
		{Name: "overlapped_s", Policy: gate.Relative, Threshold: threshold},
	})
}

func gateRecords(recs []Record) []gate.Record {
	out := make([]gate.Record, len(recs))
	for i, r := range recs {
		v := map[string]float64{"total_s": r.TotalS}
		if r.OverlappedS != 0 {
			v["overlapped_s"] = r.OverlappedS
		}
		out[i] = gate.Record{ID: r.ID, Values: v}
	}
	return out
}
