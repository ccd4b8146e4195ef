package ring

import (
	"math/rand"
	"testing"

	"cross/internal/modarith"
)

func testRing(t testing.TB, n int, limbs int) *Ring {
	t.Helper()
	primes, err := modarith.GenerateNTTPrimes(28, uint64(n), limbs)
	if err != nil {
		t.Fatal(err)
	}
	return MustRing(n, primes)
}

func randPoly(rng *rand.Rand, r *Ring) *Poly {
	p := r.NewPoly()
	for i, m := range r.Moduli {
		for k := range p.Coeffs[i] {
			p.Coeffs[i][k] = rng.Uint64() % m.Q
		}
	}
	return p
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(100, []uint64{12289}); err == nil {
		t.Error("expected error for non-power-of-two degree")
	}
	if _, err := NewRing(4, []uint64{12289}); err == nil {
		t.Error("expected error for degree < 8")
	}
	// 12289 = 3·2^12 + 1 supports up to 2^12 negacyclic; degree 2^13 must fail.
	if _, err := NewRing(1<<13, []uint64{12289}); err == nil {
		t.Error("expected error for NTT-unfriendly modulus")
	}
	if _, err := NewRing(16, []uint64{15}); err == nil {
		t.Error("expected error for composite modulus")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 64, 256, 1 << 12} {
		r := testRing(t, n, 3)
		p := randPoly(rng, r)
		orig := p.CopyNew()
		r.NTT(p)
		r.INTT(p)
		if !p.Equal(orig) {
			t.Fatalf("N=%d: NTT∘INTT != id", n)
		}
	}
}

func TestNTTMatchesNaiveBitRev(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{8, 32, 128} {
		r := testRing(t, n, 2)
		p := randPoly(rng, r)
		for i := range r.Moduli {
			naive := r.NTTNaiveLimb(i, p.Coeffs[i])
			fast := append([]uint64(nil), p.Coeffs[i]...)
			r.NTTInPlace(i, fast)
			for j := 0; j < n; j++ {
				if fast[bitReverse(uint64(j), r.LogN)] != naive[j] {
					t.Fatalf("N=%d limb %d: fast[brv(%d)] = %d, naive = %d",
						n, i, j, fast[bitReverse(uint64(j), r.LogN)], naive[j])
				}
			}
		}
	}
}

func TestINTTNaiveInvertsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 32
	r := testRing(t, n, 2)
	p := randPoly(rng, r)
	for i := range r.Moduli {
		fwd := r.NTTNaiveLimb(i, p.Coeffs[i])
		back := r.INTTNaiveLimb(i, fwd)
		for k := 0; k < n; k++ {
			if back[k] != p.Coeffs[i][k] {
				t.Fatalf("naive round trip limb %d coeff %d", i, k)
			}
		}
	}
}

func TestNTTPointwiseIsNegacyclicConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 64, 512} {
		r := testRing(t, n, 2)
		a := randPoly(rng, r)
		b := randPoly(rng, r)
		want := r.NewPoly()
		r.MulPolyNaive(a, b, want)

		r.NTT(a)
		r.NTT(b)
		got := r.NewPoly()
		r.MulCoeffs(a, b, got)
		r.INTT(got)
		if !got.Equal(want) {
			t.Fatalf("N=%d: NTT pointwise product != negacyclic convolution", n)
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 128
	r := testRing(t, n, 2)
	a := randPoly(rng, r)
	b := randPoly(rng, r)
	sum := r.NewPoly()
	r.Add(a, b, sum)

	r.NTT(a)
	r.NTT(b)
	r.NTT(sum)
	sum2 := r.NewPoly()
	r.Add(a, b, sum2)
	if !sum.Equal(sum2) {
		t.Fatal("NTT(a+b) != NTT(a)+NTT(b)")
	}
}

func TestRingBasicOps(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 64
	r := testRing(t, n, 3)
	a := randPoly(rng, r)
	b := randPoly(rng, r)

	// a + b - b == a
	tmp := r.NewPoly()
	r.Add(a, b, tmp)
	r.Sub(tmp, b, tmp)
	if !tmp.Equal(a) {
		t.Fatal("a+b-b != a")
	}
	// a + (-a) == 0
	neg := r.NewPoly()
	r.Neg(a, neg)
	r.Add(a, neg, tmp)
	zero := r.NewPoly()
	if !tmp.Equal(zero) {
		t.Fatal("a + (-a) != 0")
	}
	// MulScalar distributes over limbs.
	c := uint64(12345)
	r.MulScalar(a, c, tmp)
	for i, m := range r.Moduli {
		for k := range tmp.Coeffs[i] {
			if tmp.Coeffs[i][k] != m.MulMod(a.Coeffs[i][k], c) {
				t.Fatalf("MulScalar limb %d coeff %d", i, k)
			}
		}
	}
	// MulCoeffsAndAdd == Mul then Add.
	acc1 := b.CopyNew()
	r.MulCoeffsAndAdd(a, a, acc1)
	prod := r.NewPoly()
	r.MulCoeffs(a, a, prod)
	acc2 := r.NewPoly()
	r.Add(b, prod, acc2)
	if !acc1.Equal(acc2) {
		t.Fatal("MulCoeffsAndAdd mismatch")
	}
}

func TestPolyHelpers(t *testing.T) {
	r := testRing(t, 16, 4)
	p := r.NewPoly()
	if p.Level() != 3 || p.N() != 16 {
		t.Fatalf("level %d n %d", p.Level(), p.N())
	}
	p.Coeffs[0][0] = 42
	q := p.CopyNew()
	q.Coeffs[0][0] = 7
	if p.Coeffs[0][0] != 42 {
		t.Fatal("CopyNew aliases")
	}
	q.Copy(p)
	if q.Coeffs[0][0] != 42 {
		t.Fatal("Copy failed")
	}
	q.Truncate(1)
	if q.Level() != 1 {
		t.Fatal("Truncate failed")
	}
	if p.Equal(q) {
		t.Fatal("Equal should fail on level mismatch")
	}
	empty := &Poly{}
	if empty.N() != 0 {
		t.Fatal("empty poly N")
	}
}

func TestAtLevel(t *testing.T) {
	r := testRing(t, 16, 4)
	r2, err := r.AtLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.L() != 2 {
		t.Fatalf("AtLevel(1).L() = %d", r2.L())
	}
	if _, err := r.AtLevel(-1); err == nil {
		t.Error("expected error for negative level")
	}
	if _, err := r.AtLevel(4); err == nil {
		t.Error("expected error for level beyond chain")
	}
}

func TestMixedLevelOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := testRing(t, 16, 4)
	a := randPoly(rng, r)
	b := randPoly(rng, r)
	b.Truncate(1) // lower level
	out := NewPoly(2, 16)
	r.Add(a, b, out) // should operate on min limb count without panic
	for i := 0; i < 2; i++ {
		for k := 0; k < 16; k++ {
			if out.Coeffs[i][k] != r.Moduli[i].AddMod(a.Coeffs[i][k], b.Coeffs[i][k]) {
				t.Fatal("mixed level add mismatch")
			}
		}
	}
}
