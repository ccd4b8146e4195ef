package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cross/internal/ckks"
	"cross/internal/ring"
	"cross/internal/sweep"
)

// The benchmark runs from the repository root, where the fleet
// workload finds its reference records.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smoke is the shortest configuration of a workload: one set-up, no
// warm-up, one measured job (or one untraced/traced pair).
func smoke(t *testing.T, name string, seed int64, trace bool) options {
	return options{
		workload: name, seed: seed, trace: trace,
		traceOut:  filepath.Join(t.TempDir(), "trace.jsonl"),
		setupReps: 1, workers: 1, smoke: true,
	}
}

func mustMeasure(t *testing.T, o options, tamper func(bench)) *result {
	t.Helper()
	res, err := measure(o, tamper)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

func TestSameSeedSameInputs(t *testing.T) {
	z := helrData(7, 3)
	if !reflect.DeepEqual(helrData(7, 3), z) || !reflect.DeepEqual(helrWeights(7, 3, z), helrWeights(7, 3, z)) ||
		!reflect.DeepEqual(cnnImage(7, 3), cnnImage(7, 3)) {
		t.Fatal("the same seed generated different inputs")
	}
	if reflect.DeepEqual(helrData(7, 3), helrData(8, 3)) || reflect.DeepEqual(cnnImage(7, 3), cnnImage(7, 4)) {
		t.Fatal("different seeds or jobs generated the same inputs")
	}
	a, _ := fleetScenario(7, 1, 10)
	b, _ := fleetScenario(7, 1, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different serving scenarios")
	}
}

// TestSameSeedSameCounts runs each workload's traced smoke
// configuration twice: every count metric must repeat exactly.
func TestSameSeedSameCounts(t *testing.T) {
	for name := range workloads {
		first := mustMeasure(t, smoke(t, name, 5, true), nil)
		second := mustMeasure(t, smoke(t, name, 5, true), nil)
		nonzero := 0
		for metric, v := range first.Metrics {
			if v.Unit != "count" {
				continue
			}
			if v.Value != 0 {
				nonzero++
			}
			if w := second.Metrics[metric]; w != v {
				t.Errorf("%s: %s = %v, then %v at the same seed", name, metric, v.Value, w.Value)
			}
		}
		if nonzero == 0 {
			t.Errorf("%s: no count metric is non-zero", name)
		}
	}
}

// TestInjectedWrongResultFails injects wrong results into each
// workload, from gross corruption to plausible bugs on the paths the
// workload exercises, and expects the run to report every job failed.
func TestInjectedWrongResultFails(t *testing.T) {
	flip := func(h *host) {
		h.tamper = func(ct *ckks.Ciphertext) {
			q := h.ctx.Params.QPrimes[0]
			ct.C0.Coeffs[0][0] = (ct.C0.Coeffs[0][0] + q/3) % q
		}
	}
	// zero makes the result decrypt to all zeros.
	zero := func(h *host) {
		h.tamper = func(ct *ckks.Ciphertext) {
			for _, p := range []*ring.Poly{ct.C0, ct.C1} {
				for _, limb := range p.Coeffs {
					clear(limb)
				}
			}
		}
	}
	cases := []struct {
		name, workload string
		tamper         func(bench)
	}{
		{"flipped coefficient", "helr-train", func(b bench) { flip(&b.(*helr).host) }},
		{"flipped coefficient", "cnn-infer", func(b bench) { flip(&b.(*cnn).host) }},
		{"all-zero result", "helr-train", func(b bench) { zero(&b.(*helr).host) }},
		{"all-zero result", "cnn-infer", func(b bench) { zero(&b.(*cnn).host) }},
		// ⟨z_b, w⟩ taken over another mini-batch: only the sigmoid's
		// w-dependent part of the gradient is wrong.
		{"wrong inner product", "helr-train", func(b bench) {
			h := b.(*helr)
			h.zTop[0], h.zTop[1] = h.zTop[1], h.zTop[0]
		}},
		// Two taps' weights swapped: the hoisted rotations and the
		// MulPlain weights no longer line up.
		{"swapped tap weights", "cnn-infer", func(b bench) {
			c := b.(*cnn)
			c.weights[1], c.weights[2] = c.weights[2], c.weights[1]
		}},
		{"perturbed sweep record", "fleet-model", func(b bench) {
			b.(*fleet).tamper = func(recs []sweep.Record) { recs[123].TotalS = math.Nextafter(recs[123].TotalS, 1) }
		}},
	}
	for _, c := range cases {
		res := mustMeasure(t, smoke(t, c.workload, 1, false), c.tamper)
		if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
			t.Errorf("%s, %s: injected wrong result passed: correct=%v failed=%d attempted=%d", c.workload, c.name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestSmokeReportsDeclaredMetrics runs every workload briefly, untraced
// and traced, and checks each reports exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmokeReportsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			res := mustMeasure(t, smoke(t, name, 2, trace), nil)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: failed: %v", name, trace, res.firstErr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
