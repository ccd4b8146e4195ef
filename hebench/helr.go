package main

import (
	"fmt"
	"math"

	"cross"
	"cross/internal/ckks"
)

// helr-train: one job is one encrypted logistic-regression gradient
// request in HELR's packing [30]. The server holds the encrypted
// training set Z = y·x (labels ±1 folded into the features) as
// mini-batches of helrBatch examples; slot f·helrBatch + b holds
// feature f of example b. For weights w the gradient of the
// log-likelihood is Σ_b σ(−⟨z_b, w⟩)·z_b.
const (
	helrLogN     = 12
	helrLimbs    = 6
	helrFeatures = 256                                  // padded (the paper's HELR has 196)
	helrBatch    = (1 << (helrLogN - 1)) / helrFeatures // examples per ciphertext
	helrSets     = 16                                   // encrypted mini-batches the server holds
	helrZMax     = 1.0 / 16                             // |z| bound (see helrData)
	helrWMax     = 8                                    // |w| bound before scaling to helrTMax
	helrTMax     = 4                                    // |⟨z_b,w⟩| bound: the sigmoid's fitted range
	helrMinBits  = 6                                    // a job fails if a slot is off by more than 2^-6 of the largest gradient entry
	helrSeedBase = 0x4845_4c52                          // "HELR"
)

// helrSigmoid is σ(−t) under HELR's degree-3 least-squares sigmoid
// σ(t) ≈ 0.5 + 0.15·t − 0.0015·t³ on [−8, 8].
var helrSigmoid = []float64{0.5, -0.15, 0, 0.0015}

// helrRotations are the rotation keys: the feature log-tree
// (strides helrBatch·2^i) and the batch sum (1, 2, 4).
func helrRotations() []int {
	var rots []int
	for s := 1; s < helrFeatures; s <<= 1 {
		rots = append(rots, s*helrBatch)
	}
	for s := 1; s < helrBatch; s <<= 1 {
		rots = append(rots, s)
	}
	return rots
}

type helr struct {
	host
	z      [][]float64 // plaintext mini-batches, slot layout
	zTop   []*ckks.Ciphertext
	zLow   []*ckks.Ciphertext // the same ciphertexts dropped to the gradient level
	gradLv int
}

// helrData generates mini-batch set i of the training set. With
// |σ(−t)| ≤ 1.004 on [−helrTMax, helrTMax], every gradient slot is at
// most 8·1.004·helrZMax ≈ 0.5. Decryption needs the gradient's
// coefficients below q0/(2·scale) ≈ 0.05 at the last level; the slots
// carry no common offset, so each coefficient is about their
// RMS/√2048, around 10^-3.
func helrData(seed int64, i int) []float64 {
	rng := streamRand(seed, streamData, i)
	z := make([]float64, helrFeatures*helrBatch)
	for k := range z {
		z[k] = (2*rng.Float64() - 1) * helrZMax
	}
	return z
}

// helrWeights generates job j's weight vector for mini-batch z,
// scaled down where needed so every |⟨z_b, w⟩| ≤ helrTMax. The
// weights are large enough that σ's w-dependent part is a sizeable
// share of the gradient, so a job that gets ⟨z_b, w⟩ wrong fails its
// check.
func helrWeights(seed int64, j int, z []float64) []float64 {
	rng := streamRand(seed, streamJob, j)
	w := make([]float64, helrFeatures)
	for f := range w {
		w[f] = (2*rng.Float64() - 1) * helrWMax
	}
	var tMax float64
	for b := 0; b < helrBatch; b++ {
		tMax = math.Max(tMax, math.Abs(helrDot(z, w, b)))
	}
	if tMax > helrTMax {
		for f := range w {
			w[f] *= helrTMax / tMax
		}
	}
	return w
}

// helrDot is ⟨z_b, w⟩ for example b of mini-batch z.
func helrDot(z, w []float64, b int) float64 {
	var t float64
	for f := 0; f < helrFeatures; f++ {
		t += z[f*helrBatch+b] * w[f]
	}
	return t
}

// helrReference is the plaintext gradient Σ_b σ(−⟨z_b, w⟩)·z_b.
func helrReference(z, w []float64) []float64 {
	grad := make([]float64, helrFeatures)
	for b := 0; b < helrBatch; b++ {
		t := helrDot(z, w, b)
		var s, pow float64 = 0, 1
		for _, c := range helrSigmoid {
			s += c * pow
			pow *= t
		}
		for f := 0; f < helrFeatures; f++ {
			grad[f] += s * z[f*helrBatch+b]
		}
	}
	return grad
}

func newHELR(o options, tr *tracer) (bench, error) {
	seed := o.seed
	ctx, err := cross.NewContext(cross.ContextOptions{
		LogN: helrLogN, Limbs: helrLimbs, Seed: seed ^ helrSeedBase, Rotations: helrRotations(),
	})
	if err != nil {
		return nil, fmt.Errorf("helr-train: context: %w", err)
	}
	// Levels: ⟨z,w⟩ takes one, the sigmoid one per degree, and the
	// gradient multiply the last, so it starts where the sigmoid ends.
	h := &helr{host: host{ctx: ctx, tr: tr, seed: seed}, gradLv: helrLimbs - 2 - (len(helrSigmoid) - 1)}
	for i := 0; i < helrSets; i++ {
		z := helrData(seed, i)
		ct, err := ctx.EncryptValues(toSlots(z, ctx.Slots()))
		if err != nil {
			return nil, fmt.Errorf("helr-train: encrypt training set: %w", err)
		}
		low, err := ctx.Evaluator.DropLevel(ct, h.gradLv)
		if err != nil {
			return nil, fmt.Errorf("helr-train: drop training set: %w", err)
		}
		h.z = append(h.z, z)
		h.zTop = append(h.zTop, ct)
		h.zLow = append(h.zLow, low)
	}
	return h, nil
}

func (h *helr) prepare(j int) job {
	set := j % helrSets
	w := helrWeights(h.seed, j, h.z[set])
	want := helrReference(h.z[set], w)
	wSlots := make([]float64, helrFeatures*helrBatch)
	for k := range wSlots {
		wSlots[k] = w[k/helrBatch]
	}
	return func() (outcome, error) {
		ctW, err := h.encrypt(toSlots(wSlots, h.ctx.Slots()))
		if err != nil {
			return outcome{}, err
		}
		kc := h.ctx.Evaluator.Kc
		grad, err := h.gradient(ctW, set)
		if err != nil {
			return outcome{}, err
		}
		layer := kernelDelta(kc, h.ctx.Evaluator.Kc)
		slots := h.decrypt(grad)
		got := make([]complex128, helrFeatures)
		for f := range got {
			got[f] = slots[f*helrBatch]
		}
		out := outcome{units: helrBatch, layer: layer}
		out.bits, out.worstBits = precision(got, want)
		if out.worstBits < helrMinBits {
			return out, fmt.Errorf("helr-train: job %d: worst gradient slot has %.1f bits", j, out.worstBits)
		}
		return out, nil
	}
}

// gradient is the server side of one job.
func (h *helr) gradient(ctW *ckks.Ciphertext, set int) (*ckks.Ciphertext, error) {
	// t = ⟨z_b, w⟩ in every slot of example b: elementwise product,
	// then a log-tree over the feature stride.
	t, err := h.mulRelin(h.zTop[set], ctW)
	if err != nil {
		return nil, err
	}
	if t, err = h.rescale(t); err != nil {
		return nil, err
	}
	for s := 1; s < helrFeatures; s <<= 1 {
		rot, err := h.rotate(t, s*helrBatch)
		if err != nil {
			return nil, err
		}
		if t, err = h.add(t, rot); err != nil {
			return nil, err
		}
	}
	sig, err := h.evalPoly(t, helrSigmoid)
	if err != nil {
		return nil, err
	}
	g, err := h.mulRelin(sig, h.zLow[set])
	if err != nil {
		return nil, err
	}
	if g, err = h.rescale(g); err != nil {
		return nil, err
	}
	// Batch sum: slot f·helrBatch collects Σ_b.
	for s := 1; s < helrBatch; s <<= 1 {
		rot, err := h.rotate(g, s)
		if err != nil {
			return nil, err
		}
		if g, err = h.add(g, rot); err != nil {
			return nil, err
		}
	}
	return g, nil
}
