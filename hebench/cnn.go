package main

import (
	"fmt"
	"sort"

	"cross"
	"cross/internal/ckks"
)

// cnn-infer: one job is one encrypted inference on a 28×28 image
// packed in slots [0, 784): a 3×3 convolution (one hoisted rotation
// over the 9 taps, a MulPlain per tap by the encoded weights), a
// square activation, and a banded dense layer of cnnDiags diagonals
// evaluated as a BSGS linear transform.
const (
	cnnLogN     = 13 // the paper's MNIST ring degree
	cnnLimbs    = 4  // depth 3: convolution, square, dense
	cnnSide     = 28
	cnnPixels   = cnnSide * cnnSide
	cnnDiags    = 32
	cnnMinBits  = 8           // a job fails if a slot is off by more than 2^-8 of the largest output
	cnnSeedBase = 0x434e_4e00 // "CNN"
)

// cnnOutMax bounds every output slot. The weights are non-negative (a
// blur, then a pooling-like dense layer) and normalised: the taps sum
// to 1, so conv ∈ [0, 1), and every slot's diagonal entries sum to at
// most cnnOutMax. The output then sits near its bound instead of
// cancelling towards 0, far above the key-switching noise, and a wrong
// tap or diagonal moves it by a large share. Decryption needs every
// coefficient of the output below q0/(2·scale) ≈ 0.12; each is at
// most the mean |slot|, here ≤ cnnOutMax·815/4096 ≈ 0.05.
const cnnOutMax = 0.25

// cnnTaps are the slot rotations of the 3×3 kernel's taps.
func cnnTaps() []int {
	var taps []int
	for dy := 0; dy < 3; dy++ {
		for dx := 0; dx < 3; dx++ {
			taps = append(taps, dy*cnnSide+dx)
		}
	}
	return taps
}

// cnnRotations lists the rotation keys: the non-zero taps plus the
// dense layer's BSGS baby and giant steps (giant step: the smallest
// power of two whose square covers the diagonals, as
// ckks.NewLinearTransform picks it).
func cnnRotations() []int {
	need := map[int]bool{}
	for _, t := range cnnTaps() {
		if t != 0 {
			need[t] = true
		}
	}
	giant := 1
	for giant*giant < cnnDiags {
		giant <<= 1
	}
	for d := 1; d < cnnDiags; d++ {
		if j := d % giant; j != 0 {
			need[j] = true
		}
		if i := d / giant; i != 0 {
			need[giant*i] = true
		}
	}
	var rots []int
	for k := range need {
		rots = append(rots, k)
	}
	sort.Ints(rots) // key generation draws randomness in list order
	return rots
}

type cnn struct {
	host
	taps    []int
	kernel  []float64         // 3×3 weights, tap order
	diags   [][]float64       // dense layer: diagonal d's slot values
	weights []*ckks.Plaintext // per-tap weights, masked to the image
	dense   *ckks.LinearTransform
}

func newCNN(o options, tr *tracer) (bench, error) {
	seed := o.seed
	ctx, err := cross.NewContext(cross.ContextOptions{
		LogN: cnnLogN, Limbs: cnnLimbs, Seed: seed ^ cnnSeedBase, Rotations: cnnRotations(),
	})
	if err != nil {
		return nil, fmt.Errorf("cnn-infer: context: %w", err)
	}
	c := &cnn{host: host{ctx: ctx, tr: tr, seed: seed}, taps: cnnTaps()}
	slots := ctx.Slots()
	rng := streamRand(seed, streamModel, 0)
	top := ctx.Params.MaxLevel()
	var tapSum float64
	for range c.taps {
		k := rng.Float64()
		c.kernel = append(c.kernel, k)
		tapSum += k
	}
	for t := range c.kernel {
		c.kernel[t] /= tapSum
	}
	for _, k := range c.kernel {
		vals := make([]complex128, slots)
		for i := 0; i < cnnPixels; i++ {
			vals[i] = complex(k, 0)
		}
		pt, err := ctx.Encoder.EncodeAtLevel(vals, top, ctx.Params.Scale)
		if err != nil {
			return nil, fmt.Errorf("cnn-infer: encode weights: %w", err)
		}
		c.weights = append(c.weights, pt)
	}
	colSum := make([]float64, slots)
	for d := 0; d < cnnDiags; d++ {
		diag := make([]float64, slots)
		for i := range diag {
			diag[i] = rng.Float64()
			colSum[i] += diag[i]
		}
		c.diags = append(c.diags, diag)
	}
	norm := cnnOutMax / maxAbs(colSum)
	encoded := make(map[int][]complex128, cnnDiags)
	for d, diag := range c.diags {
		for i := range diag {
			diag[i] *= norm
		}
		encoded[d] = toSlots(diag, slots)
	}
	// The dense layer runs after the convolution and the square, each
	// of which spends a level.
	if c.dense, err = ctx.Evaluator.NewLinearTransform(ctx.Encoder, encoded, top-2, ctx.Params.Scale); err != nil {
		return nil, fmt.Errorf("cnn-infer: encode dense layer: %w", err)
	}
	keys := map[int]bool{}
	for _, k := range cnnRotations() {
		keys[k] = true
	}
	for _, k := range c.dense.GaloisElementsFor() {
		if !keys[k] {
			return nil, fmt.Errorf("cnn-infer: dense layer needs rotation %d, which has no key", k)
		}
	}
	return c, nil
}

// cnnImage generates job j's image, pixels in [0, 1).
func cnnImage(seed int64, j int) []float64 {
	rng := streamRand(seed, streamJob, j)
	img := make([]float64, cnnPixels)
	for i := range img {
		img[i] = rng.Float64()
	}
	return img
}

// reference runs the plaintext network over the same padded slot
// vector the encrypted one rotates.
func (c *cnn) reference(img []float64) []float64 {
	slots := c.ctx.Slots()
	conv := make([]float64, slots)
	for i := 0; i < cnnPixels; i++ {
		var acc float64
		for t, s := range c.taps {
			if k := (i + s) % slots; k < cnnPixels {
				acc += c.kernel[t] * img[k]
			}
		}
		conv[i] = acc * acc
	}
	out := make([]float64, slots)
	for i := range out {
		var acc float64
		for d, diag := range c.diags {
			acc += diag[i] * conv[(i+d)%slots]
		}
		out[i] = acc
	}
	return out
}

func (c *cnn) prepare(j int) job {
	img := cnnImage(c.seed, j)
	want := c.reference(img)
	return func() (outcome, error) {
		ct, err := c.encrypt(toSlots(img, c.ctx.Slots()))
		if err != nil {
			return outcome{}, err
		}
		kc := c.ctx.Evaluator.Kc
		res, err := c.infer(ct)
		if err != nil {
			return outcome{}, err
		}
		layer := kernelDelta(kc, c.ctx.Evaluator.Kc)
		out := outcome{units: 1, layer: layer}
		out.bits, out.worstBits = precision(c.decrypt(res), want)
		if out.worstBits < cnnMinBits {
			return out, fmt.Errorf("cnn-infer: job %d: worst output slot has %.1f bits", j, out.worstBits)
		}
		return out, nil
	}
}

// infer is the server side of one job.
func (c *cnn) infer(ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	rots, err := c.rotateHoisted(ct, c.taps)
	if err != nil {
		return nil, err
	}
	var acc *ckks.Ciphertext
	for t, rot := range rots {
		term, err := c.mulPlain(rot, c.weights[t])
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = term
		} else if acc, err = c.add(acc, term); err != nil {
			return nil, err
		}
	}
	if acc, err = c.rescale(acc); err != nil {
		return nil, err
	}
	sq, err := c.mulRelin(acc, acc)
	if err != nil {
		return nil, err
	}
	if sq, err = c.rescale(sq); err != nil {
		return nil, err
	}
	return c.linTrans(sq, c.dense)
}
