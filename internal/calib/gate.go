package calib

import (
	"math"

	"cross/internal/gate"
)

// Gate compares a calibration report against a baseline
// (BENCH_calib.json). Each record's fitted model error |RelErrFitted|
// regresses when it grows by more than the threshold, an absolute
// fraction (0.10 = ten points). Each spec's fitted constants are the
// record "fit/<spec>" and regress when any moves by more than the
// threshold, relative, in either direction. Host-source records and
// the host fit only warn: host ground truth moves with the machine.
// Environment mismatches warn too.
func Gate(old, new *Report, threshold float64) gate.Result {
	metrics := []gate.Metric{{Name: "abs_rel_err_fitted", Policy: gate.Absolute, Threshold: threshold}}
	for _, name := range []string{"launch_overhead_s", "hbm_fraction", "vmem_fraction", "ntt_efficiency"} {
		metrics = append(metrics, gate.Metric{Name: name, Policy: gate.Band, Threshold: threshold})
	}
	r := gate.Diff("calib", gateRecords(old), gateRecords(new), metrics)
	r.Warnings = append(r.Warnings, old.Env.Mismatches(new.Env)...)
	return r
}

func gateRecords(rep *Report) []gate.Record {
	out := make([]gate.Record, 0, len(rep.Records)+len(rep.Fits))
	for _, r := range rep.Records {
		out = append(out, gate.Record{
			ID:       r.ID,
			Values:   map[string]float64{"abs_rel_err_fitted": math.Abs(r.RelErrFitted)},
			WarnOnly: r.Source == SourceHost,
		})
	}
	for _, f := range rep.Fits {
		c := f.Fitted
		out = append(out, gate.Record{
			ID: "fit/" + f.Spec,
			Values: map[string]float64{
				"launch_overhead_s": c.LaunchOverhead, "hbm_fraction": c.HBMFraction,
				"vmem_fraction": c.VMEMFraction, "ntt_efficiency": c.NTTEfficiency,
			},
			WarnOnly: f.Source == SourceHost,
		})
	}
	return out
}
