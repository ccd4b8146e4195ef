package cross

import (
	"testing"

	"cross/internal/tpusim"
)

// Every named calibration kernel must price to a positive, finite,
// one-launch schedule on a single core, and unknown names must error — the
// contract internal/calib pairs measurements against.
func TestPredictKernelCoversCalibVocabulary(t *testing.T) {
	p := Params{LogN: 13, LogQ: 28, L: 2, Dnum: 1, R: 128, C: 64}
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv4()), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range CalibKernels() {
		s, err := c.PredictKernel(k)
		if err != nil {
			t.Fatalf("PredictKernel(%q): %v", k, err)
		}
		if s.Total <= 0 {
			t.Errorf("PredictKernel(%q).Total = %v, want > 0", k, s.Total)
		}
		if s.Op != k {
			t.Errorf("PredictKernel(%q).Op = %q", k, s.Op)
		}
		// Each calibration kernel is one launch — the radix-2
		// transforms included, forward as an NTT, inverse as an INTT.
		if n := s.Kernels.Total(); n != 1 {
			t.Errorf("PredictKernel(%q).Kernels = %v (%d launches), want 1", k, s.Kernels, n)
		}
		if (k == KernelNTT && s.Kernels.NTTs != 1) || (k == KernelINTT && s.Kernels.INTTs != 1) {
			t.Errorf("PredictKernel(%q).Kernels = %v, wrong transform direction", k, s.Kernels)
		}
	}
	if _, err := c.PredictKernel("no_such_kernel"); err == nil {
		t.Fatal("PredictKernel with an unknown name must error")
	}
}

// The prediction must respond to the calibration constants it exists to
// fit: scaling a constant moves the predicted time. This is what makes
// the fitter's search space non-degenerate.
func TestPredictKernelRespondsToCalibration(t *testing.T) {
	p := Params{LogN: 13, LogQ: 28, L: 2, Dnum: 1, R: 128, C: 64}
	spec := tpusim.TPUv4()
	base, err := Compile(tpusim.NewDevice(spec), p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Compile(tpusim.NewDevice(spec.WithCalibration(tpusim.Calibration{
		LaunchOverhead: 10 * spec.DispatchOverhead,
		HBMFraction:    0.5,
		VMEMFraction:   0.5,
		NTTEfficiency:  0.5,
	})), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range CalibKernels() {
		b, _ := base.PredictKernel(k)
		s, _ := slow.PredictKernel(k)
		if s.Total <= b.Total {
			t.Errorf("%s: derated calibration predicts %v, want > uncalibrated %v", k, s.Total, b.Total)
		}
	}
}
