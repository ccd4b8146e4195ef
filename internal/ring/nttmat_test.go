package ring

import (
	"math/rand"
	"testing"
)

func TestMatNTTPlanValidation(t *testing.T) {
	r := testRing(t, 64, 1)
	if _, err := NewMatNTTPlan(r, 8, 4, LayoutDigitSwap); err == nil {
		t.Error("expected error for split not covering N")
	}
	if _, err := NewMatNTTPlan(r, 64, 1, LayoutDigitSwap); err == nil {
		t.Error("expected error for degenerate split factor")
	}
	if _, err := NewMatNTTPlan(r, 8, 8, LayoutNatural); err == nil {
		t.Error("expected error for natural layout")
	}
	if _, err := NewMatNTTPlan(r, 8, 8, LayoutDigitSwap); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

func TestMatNTTDigitSwapMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := []struct{ n, r, c int }{
		{16, 4, 4}, {32, 4, 8}, {32, 8, 4}, {256, 16, 16}, {256, 4, 64},
	}
	for _, tc := range cases {
		rg := testRing(t, tc.n, 2)
		plan, err := NewMatNTTPlan(rg, tc.r, tc.c, LayoutDigitSwap)
		if err != nil {
			t.Fatal(err)
		}
		p := randPoly(rng, rg)
		for i := range rg.Moduli {
			naive := rg.NTTNaiveLimb(i, p.Coeffs[i])
			out := make([]uint64, tc.n)
			plan.ForwardLimb(i, p.Coeffs[i], out)
			// Layout: out[j2·R + j1] = naive[j2 + C·j1].
			for j2 := 0; j2 < tc.c; j2++ {
				for j1 := 0; j1 < tc.r; j1++ {
					if out[j2*tc.r+j1] != naive[j2+tc.c*j1] {
						t.Fatalf("N=%d (R=%d,C=%d) limb %d: out[%d,%d] = %d want %d",
							tc.n, tc.r, tc.c, i, j2, j1, out[j2*tc.r+j1], naive[j2+tc.c*j1])
					}
				}
			}
		}
	}
}

func TestMatNTTBitRevMatchesRadix2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, r, c int }{
		{16, 4, 4}, {64, 8, 8}, {256, 8, 32}, {1024, 32, 32},
	}
	for _, tc := range cases {
		rg := testRing(t, tc.n, 2)
		plan, err := NewMatNTTPlan(rg, tc.r, tc.c, LayoutBitRev)
		if err != nil {
			t.Fatal(err)
		}
		p := randPoly(rng, rg)
		for i := range rg.Moduli {
			want := append([]uint64(nil), p.Coeffs[i]...)
			rg.NTTInPlace(i, want) // radix-2 CT, bit-reversed output
			got := make([]uint64, tc.n)
			plan.ForwardLimb(i, p.Coeffs[i], got)
			for k := 0; k < tc.n; k++ {
				if got[k] != want[k] {
					t.Fatalf("N=%d (R=%d,C=%d) limb %d slot %d: MAT %d, radix-2 %d",
						tc.n, tc.r, tc.c, i, k, got[k], want[k])
				}
			}
		}
	}
}

func TestMatNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, order := range []Layout{LayoutDigitSwap, LayoutBitRev} {
		for _, tc := range []struct{ n, r, c int }{{64, 8, 8}, {512, 8, 64}, {512, 64, 8}} {
			rg := testRing(t, tc.n, 3)
			plan, err := NewMatNTTPlan(rg, tc.r, tc.c, order)
			if err != nil {
				t.Fatal(err)
			}
			p := randPoly(rng, rg)
			orig := p.CopyNew()
			plan.Forward(p)
			plan.Inverse(p)
			if !p.Equal(orig) {
				t.Fatalf("N=%d (R=%d,C=%d) order=%v: forward∘inverse != id", tc.n, tc.r, tc.c, order)
			}
		}
	}
}

func TestMatNTTBitRevInteropWithRadix2Inverse(t *testing.T) {
	// A polynomial forward-transformed by the MAT bit-rev plan must be
	// invertible by the radix-2 INTT, proving true interoperability.
	rng := rand.New(rand.NewSource(13))
	rg := testRing(t, 256, 2)
	plan, err := NewMatNTTPlan(rg, 16, 16, LayoutBitRev)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(rng, rg)
	orig := p.CopyNew()
	plan.Forward(p)
	rg.INTT(p)
	if !p.Equal(orig) {
		t.Fatal("radix-2 INTT does not invert MAT bitrev forward")
	}
}

func TestForward4StepNaturalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rg := testRing(t, 128, 2)
	plan, err := NewMatNTTPlan(rg, 8, 16, LayoutDigitSwap)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(rng, rg)
	for i := range rg.Moduli {
		naive := rg.NTTNaiveLimb(i, p.Coeffs[i])
		out := make([]uint64, rg.N)
		plan.Forward4Step(i, p.Coeffs[i], out)
		for j := range out {
			if out[j] != naive[j] {
				t.Fatalf("limb %d slot %d: 4-step %d naive %d", i, j, out[j], naive[j])
			}
		}
		back := make([]uint64, rg.N)
		plan.Inverse4Step(i, out, back)
		for j := range back {
			if back[j] != p.Coeffs[i][j] {
				t.Fatalf("limb %d: Inverse4Step round trip failed at %d", i, j)
			}
		}
	}
}

func TestForward4StepPanicsOnBitRevPlan(t *testing.T) {
	rg := testRing(t, 64, 1)
	plan, err := NewMatNTTPlan(rg, 8, 8, LayoutBitRev)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	plan.Forward4Step(0, make([]uint64, 64), make([]uint64, 64))
}

func TestMatNTTInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rg := testRing(t, 64, 2)
	plan, err := NewMatNTTPlan(rg, 8, 8, LayoutDigitSwap)
	if err != nil {
		t.Fatal(err)
	}
	p := randPoly(rng, rg)
	want := make([]uint64, 64)
	plan.ForwardLimb(0, p.Coeffs[0], want)
	plan.ForwardLimb(0, p.Coeffs[0], p.Coeffs[0]) // in-place
	for k := range want {
		if p.Coeffs[0][k] != want[k] {
			t.Fatal("in-place forward differs from out-of-place")
		}
	}
}

func TestLayoutString(t *testing.T) {
	for l, want := range map[Layout]string{
		LayoutNatural: "natural", LayoutBitRev: "bitrev",
		LayoutDigitSwap: "digitswap", Layout(9): "unknown",
	} {
		if l.String() != want {
			t.Errorf("Layout(%d).String() = %q want %q", l, l.String(), want)
		}
	}
}

func TestMatricesAccessors(t *testing.T) {
	rg := testRing(t, 64, 1)
	plan, err := NewMatNTTPlan(rg, 8, 8, LayoutDigitSwap)
	if err != nil {
		t.Fatal(err)
	}
	t1, tw, t3 := plan.Matrices(0)
	if len(t1) != 64 || len(tw) != 64 || len(t3) != 64 {
		t.Fatalf("matrix sizes %d %d %d", len(t1), len(tw), len(t3))
	}
	t3i, twi, t1i := plan.InverseMatrices(0)
	if len(t3i) != 64 || len(twi) != 64 || len(t1i) != 64 {
		t.Fatal("inverse matrix sizes")
	}
	// T3 must be symmetric: (ω^C)^{rj} = (ω^C)^{jr}.
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			if t3[r*8+c] != t3[c*8+r] {
				t.Fatal("T3 not symmetric")
			}
		}
	}
}
