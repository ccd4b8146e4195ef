package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"cross"
	"cross/internal/ckks"
	"cross/internal/hostbench"
	"cross/internal/rns"
)

// host is the state the two encrypted workloads share: the CKKS
// context and the traced entry points into the ckks layer. Every call
// runs on the caller's goroutine; the evaluator is not shared.
type host struct {
	ctx  *cross.Context
	tr   *tracer
	seed int64
	// tamper, when set, rewrites the server's result before the client
	// decrypts it (tests inject wrong results through it).
	tamper func(*ckks.Ciphertext)
}

// Input streams: each generator draws from its own stream of the seed.
const (
	streamData  = iota // training set
	streamModel        // network weights
	streamJob          // per-job inputs (weights to train, images)
)

// streamRand returns the generator for item index of one stream of seed.
func streamRand(seed int64, stream, index int) *rand.Rand {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(index)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return rand.New(rand.NewSource(int64(x ^ (x >> 31))))
}

func toSlots(v []float64, slots int) []complex128 {
	out := make([]complex128, slots)
	for i, x := range v {
		out[i] = complex(x, 0)
	}
	return out
}

// precision compares decrypted slots with their real reference values.
// avg is −log2 of the RMS error over the RMS reference value, the
// figure the benchmark reports; worst is −log2 of the largest error
// over the largest reference value, the figure a job's check holds to
// a floor. The worst slot is set by the few slots where the keys'
// noise peaks, so it moves with the seed; the RMS does not.
func precision(got []complex128, want []float64) (avg, worst float64) {
	var se, sw, maxErr float64
	for i, w := range want {
		e := cmplx.Abs(got[i] - complex(w, 0))
		se += e * e
		sw += w * w
		maxErr = math.Max(maxErr, e)
	}
	return precisionBits(math.Sqrt(se), math.Sqrt(sw)), precisionBits(maxErr, maxAbs(want))
}

func (h *host) encrypt(v []complex128) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.encrypt")
	defer h.tr.end(s)
	return h.ctx.EncryptValues(v)
}

func (h *host) decrypt(ct *ckks.Ciphertext) []complex128 {
	if h.tamper != nil {
		h.tamper(ct)
	}
	s := h.tr.begin("ckks.decrypt")
	defer h.tr.end(s)
	return h.ctx.DecryptValues(ct)
}

func (h *host) mulRelin(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.mulrelin")
	defer h.tr.end(s)
	return h.ctx.Evaluator.MulRelin(a, b)
}

func (h *host) rescale(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.rescale")
	defer h.tr.end(s)
	return h.ctx.Evaluator.Rescale(ct)
}

func (h *host) rotate(ct *ckks.Ciphertext, k int) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.rotate")
	defer h.tr.end(s)
	return h.ctx.Evaluator.Rotate(ct, k)
}

func (h *host) rotateHoisted(ct *ckks.Ciphertext, ks []int) ([]*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.rotate_hoisted")
	defer h.tr.end(s)
	return h.ctx.Evaluator.RotateHoisted(ct, ks)
}

func (h *host) mulPlain(ct *ckks.Ciphertext, pt *ckks.Plaintext) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.mulplain")
	defer h.tr.end(s)
	return h.ctx.Evaluator.MulPlain(ct, pt)
}

func (h *host) add(a, b *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.add")
	defer h.tr.end(s)
	return h.ctx.Evaluator.Add(a, b)
}

func (h *host) evalPoly(ct *ckks.Ciphertext, coeffs []float64) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.evalpoly")
	defer h.tr.end(s)
	return h.ctx.Evaluator.EvalPoly(ct, coeffs, h.ctx.Encoder)
}

func (h *host) linTrans(ct *ckks.Ciphertext, lt *ckks.LinearTransform) (*ckks.Ciphertext, error) {
	s := h.tr.begin("ckks.lintrans")
	defer h.tr.end(s)
	return h.ctx.Evaluator.EvalLinearTransform(ct, lt)
}

// serverOps are the evaluator spans: the server's share of a job.
var serverOps = []string{"mulrelin", "rescale", "rotate", "rotate_hoisted", "mulplain", "add", "evalpoly", "lintrans"}

// kernelDelta turns the evaluator's kernel tallies before and after a
// job into the job's per-layer kernel counts.
func kernelDelta(before, after ckks.KernelCounters) map[string]float64 {
	return map[string]float64{
		"ring.ntt_limbs":       float64(after.NTTLimbs - before.NTTLimbs),
		"ring.intt_limbs":      float64(after.INTTLimbs - before.INTTLimbs),
		"ring.automorph_limbs": float64(after.Automorph - before.Automorph),
		"rns.bconv_calls":      float64(after.BConvCalls - before.BConvCalls),
		"modarith.vecmul_n":    float64(after.VecMulN - before.VecMulN),
		"modarith.vecadd_n":    float64(after.VecAddN - before.VecAddN),
	}
}

// kernelCosts maps each kernel count to the unit cost that prices it.
var kernelCosts = map[string]string{
	"ring.ntt_limbs":       "ring.ntt_us",
	"ring.intt_limbs":      "ring.intt_us",
	"ring.automorph_limbs": "ring.automorph_us",
	"rns.bconv_calls":      "rns.bconv_us",
	"modarith.vecmul_n":    "modarith.vecmul_us",
	"modarith.vecadd_n":    "modarith.vecadd_us",
}

// probe times one invocation of each counted kernel at the
// context's ring degree, in µs (median of repeats): the ring and
// modarith kernels through hostbench.Measure, BConv through the rns
// converter at the top-level key-switch ModUp shape (one digit of
// Alpha limbs onto the other L−Alpha ciphertext limbs and the Alpha
// special limbs).
func (h *host) probe() (map[string]float64, error) {
	const repeats = 3
	p := h.ctx.Params
	samples, err := hostbench.Measure([]int{p.N()}, repeats)
	if err != nil {
		return nil, fmt.Errorf("unit kernel costs: %w", err)
	}
	names := map[string]string{
		"ntt_inplace":       "ring.ntt_us",
		"intt_inplace":      "ring.intt_us",
		"automorphism_ntt":  "ring.automorph_us",
		"vecmulmod_barrett": "modarith.vecmul_us",
		"vecaddmod":         "modarith.vecadd_us",
	}
	out := make(map[string]float64)
	for _, s := range samples {
		if name, ok := names[s.Kernel]; ok {
			out[name] = median(s.Ns) / 1e3
		}
	}
	from, err := rns.NewBasis(p.QPrimes[:p.Alpha])
	if err != nil {
		return nil, fmt.Errorf("unit kernel costs: %w", err)
	}
	to, err := rns.NewBasis(append(append([]uint64{}, p.QPrimes[p.Alpha:]...), p.PPrimes...))
	if err != nil {
		return nil, fmt.Errorf("unit kernel costs: %w", err)
	}
	conv, err := rns.NewConverter(from, to)
	if err != nil {
		return nil, fmt.Errorf("unit kernel costs: %w", err)
	}
	rng := streamRand(h.seed, streamData, -1)
	in := rns.AllocLimbs(from.L(), p.N())
	for i := range in {
		for k := range in[i] {
			in[i][k] = rng.Uint64() % p.QPrimes[i]
		}
	}
	dst := rns.AllocLimbs(to.L(), p.N())
	out["rns.bconv_us"] = timeNs(func() { conv.ConvertApproxInto(dst, in) }, repeats) / 1e3
	return out, nil
}

// timeNs returns the median ns per call of op over repeats batches,
// each batch long enough (≥ 2 ms) to amortise the timer.
func timeNs(op func(), repeats int) float64 {
	op()
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if time.Since(start) >= 2*time.Millisecond {
			break
		}
		iters *= 2
	}
	ns := make([]float64, repeats)
	for r := range ns {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		ns[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(ns)
}
