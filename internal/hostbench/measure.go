package hostbench

import (
	"fmt"
	"math"
	"time"
)

// Sample is one kernel's raw measurement at one size: every repeat's
// ns/op, unaggregated, so the calibration harness can both fit against
// a robust point estimate and report the spread it fitted through.
type Sample struct {
	// Kernel is the base name (the cross.CalibKernels vocabulary);
	// ID is the full hostbench record ID (base/size).
	Kernel string `json:"kernel"`
	ID     string `json:"id"`
	// N is the polynomial degree the kernel ran at (the containing
	// sweep size for the size-independent BAT matmul).
	N  int       `json:"n"`
	Ns []float64 `json:"ns_per_op"`
}

// Best returns the sample's minimum ns/op — the standard
// least-interference estimator for a deterministic kernel on a noisy
// shared host (every slower repeat is the same work plus interference).
func (s Sample) Best() float64 {
	best := math.Inf(1)
	for _, v := range s.Ns {
		best = math.Min(best, v)
	}
	return best
}

// measureBudget is the per-sample timing window: long enough to
// amortise timer resolution, short enough that a multi-size ×
// multi-repeat sweep stays a seconds-scale CI step (testing.Benchmark's
// ~1 s settling per invocation would cost minutes here).
const measureBudget = 2 * time.Millisecond

// Measure times every gated kernel at each degree, repeats times per
// point, and returns the raw samples in a stable order (sizes as given,
// kernels in the canonical Run order). The size-independent BAT matmul
// rides along with the first size only. Unlike Run it does not count
// allocations — it exists to feed measured latencies to internal/calib.
func Measure(sizes []int, repeats int) ([]Sample, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("hostbench: no sizes to measure")
	}
	var out []Sample
	for si, n := range sizes {
		ks, err := buildKernels(n, si == 0)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			ns, err := Time(k.op, repeats)
			if err != nil {
				return nil, err
			}
			out = append(out, Sample{Kernel: k.base, ID: k.id, N: n, Ns: ns})
		}
	}
	return out, nil
}

// Time is the host timer every wall-clock measurement goes through. It
// warms op up, doubles the iteration count until one batch fills the
// measurement budget, then returns repeats ns/op samples (at least one),
// each over a batch of that many iterations. The first error op returns
// aborts the measurement.
func Time(op func() error, repeats int) ([]float64, error) {
	if err := op(); err != nil { // warm-up: caches, page faults, JIT-free but honest
		return nil, err
	}
	batch := func(iters int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	iters := 1
	for ; iters < 1<<24; iters *= 2 {
		d, err := batch(iters)
		if err != nil {
			return nil, err
		}
		if d >= measureBudget {
			break
		}
	}
	ns := make([]float64, max(repeats, 1))
	for r := range ns {
		d, err := batch(iters)
		if err != nil {
			return nil, err
		}
		ns[r] = float64(d.Nanoseconds()) / float64(iters)
	}
	return ns, nil
}
