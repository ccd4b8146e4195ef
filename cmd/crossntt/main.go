// Command crossntt is the NTT throughput explorer: it compares the
// three NTT algorithm lowerings the paper analyses — radix-2
// Cooley–Tukey (Alg. 3), 4-step with explicit transpose, and the MAT
// layout-invariant 3-step (Fig. 10) — on any simulated TPU generation,
// sweeping batch sizes; and it cross-checks every algorithm's
// functional output against the naive O(N²) oracle first.
//
// Usage:
//
//	crossntt -device TPUv6e -logn 14
//
// Run with: go run ./cmd/crossntt [flags]
package main

import (
	"flag"
	"fmt"
	"os"

	"cross"
	icross "cross/internal/cross"
	"cross/internal/ring"
	"cross/internal/tpusim"
)

func main() {
	device := flag.String("device", "TPUv6e", "TPU generation")
	logN := flag.Int("logn", 13, "ring degree exponent")
	flag.Parse()

	spec, ok := tpusim.SpecByName(*device)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown device %q\n", *device)
		os.Exit(1)
	}

	// Functional cross-check at a testable degree.
	verify()

	p := icross.SetA()
	p.LogN = *logN
	r := 128
	if (1<<*logN)/r < 2 {
		r = (1 << *logN) / 2
	}
	p.R, p.C = r, (1<<*logN)/r

	comp, err := cross.Compile(cross.NewDevice(spec), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("NTT algorithm comparison on %s at N=2^%d (split %dx%d):\n\n", spec.Name, *logN, p.R, p.C)
	fmt.Printf("%-8s%16s%16s%16s%14s\n", "batch", "radix-2 µs", "4-step µs", "MAT 3-step µs", "MAT kNTT/s")
	for batch := 1; batch <= 128; batch <<= 1 {
		radix2 := comp.LowerNTTRadix2(batch).Total
		four := comp.LowerNTT4Step(batch).Total
		mat := comp.LowerNTT(batch).Total
		fmt.Printf("%-8d%16.1f%16.1f%16.1f%14.0f\n",
			batch, radix2*1e6, four*1e6, mat*1e6, float64(batch)/mat/1e3)
	}
	best, thr := comp.BestNTTBatch(256)
	fmt.Printf("\npeak: batch %d → %.0f kNTT/s per tensor core\n", best, thr/1e3)
	fmt.Println("\n(Tab. X context: the paper measures ~25–30× radix-2 → MAT speedup on")
	fmt.Println(" TPUv4 at batch 128; the ratio here should be the same order.)")
}

// verify checks all three algorithm implementations against the naive
// O(N²) transform on a small ring.
func verify() {
	n := 256
	primes, err := cross.NTTFriendlyPrimes(28, uint64(n), 1)
	if err != nil {
		panic(err)
	}
	rg, err := cross.NewRing(n, primes)
	if err != nil {
		panic(err)
	}
	in := make([]uint64, n)
	for i := range in {
		in[i] = uint64(i*i + 1)
	}
	naive := rg.NTTNaiveLimb(0, in)

	// radix-2 (bit-reversed output)
	ct := append([]uint64(nil), in...)
	rg.NTTInPlace(0, ct)
	for j := 0; j < n; j++ {
		if ct[ring.BitReverse(uint64(j), 8)] != naive[j] {
			panic("radix-2 NTT diverges from naive oracle")
		}
	}
	// MAT 3-step (bit-reversed order plan) and 4-step (natural order)
	planBR, err := cross.NewMatNTTPlan(rg, 16, 16, cross.LayoutBitRev)
	if err != nil {
		panic(err)
	}
	got := make([]uint64, n)
	planBR.ForwardLimb(0, in, got)
	for j := range got {
		if got[j] != ct[j] {
			panic("MAT 3-step diverges from radix-2")
		}
	}
	planDS, err := cross.NewMatNTTPlan(rg, 16, 16, cross.LayoutDigitSwap)
	if err != nil {
		panic(err)
	}
	planDS.Forward4Step(0, in, got)
	for j := range got {
		if got[j] != naive[j] {
			panic("4-step diverges from naive oracle")
		}
	}
	fmt.Println("functional check: radix-2, 4-step, and MAT 3-step all match the O(N²) oracle")
	fmt.Println()
}
