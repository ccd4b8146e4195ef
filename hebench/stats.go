package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of xs
// without reordering xs; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// precisionBits is −log2 of an error relative to the size ref of the
// reference it is measured against, capped at 53 bits (a float64
// significand): an exact match reads 53; an error as large as the
// reference itself (an all-zero result, say) reads 0 or less; a NaN
// or infinite error, or a zero ref, reads 0.
func precisionBits(err, ref float64) float64 {
	if math.IsNaN(err) || math.IsInf(err, 0) || !(ref > 0) {
		return 0
	}
	if err <= 0 {
		return 53
	}
	return math.Min(53, -math.Log2(err/ref))
}

// maxAbs is the largest |x| of xs.
func maxAbs(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, math.Abs(x))
	}
	return m
}
