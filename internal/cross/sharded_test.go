package cross

import (
	"math"
	"testing"

	"cross/internal/tpusim"
)

func mustSharded(t *testing.T, spec tpusim.Spec, cores int, p Params) *Compiler {
	t.Helper()
	pod, err := tpusim.NewPod(spec, cores)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(pod, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedValidation(t *testing.T) {
	pod := tpusim.MustPod(tpusim.TPUv6e(), 2)
	for _, tc := range []struct {
		name string
		pod  *tpusim.Pod
		p    Params
	}{
		{"nil pod", nil, SetA()},
		{"empty pod", &tpusim.Pod{}, SetA()},
		{"zero params", pod, Params{}},
	} {
		if _, err := Compile(tc.pod, tc.p); err == nil {
			t.Errorf("%s: expected an error", tc.name)
		}
	}
	c, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), SetB())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Compile(pod, c.P)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCores() != 2 || s.P.LogN != SetB().LogN {
		t.Error("re-targeting at a pod lost configuration")
	}
}

// A one-core pod must reproduce the single-core compiler exactly: the
// sharded lowering degenerates to the paper's model with zero
// collective cost.
func TestShardedOneCoreIdentity(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
		if err != nil {
			t.Fatal(err)
		}
		s := mustSharded(t, tpusim.TPUv6e(), 1, p)

		pairs := [][2]float64{
			{single.LowerHEMult().Total, s.LowerHEMult().Total},
			{single.LowerKeySwitch().Total, s.LowerKeySwitch().Total},
			{single.LowerRescale().Total, s.LowerRescale().Total},
			{single.LowerRotate().Total, s.LowerRotate().Total},
			{single.LowerHEAdd().Total, s.LowerHEAdd().Total},
			{single.LowerNTT(8).Total, s.LowerNTT(8).Total},
			{single.LowerBConv(p.N(), 4, 8, true).Total, s.LowerBConv(p.N(), 4, 8, true).Total},
		}
		for i, pr := range pairs {
			if pr[0] != pr[1] {
				t.Errorf("Set%s pair %d: single %g != sharded-1 %g", name, i, pr[0], pr[1])
			}
		}
	}
}

// Large kernels must get strictly faster with more cores — the
// acceptance bar for the pod layer. SetC and SetD are the paper's
// large configurations.
func TestShardedSpeedupOnLargeKernels(t *testing.T) {
	for _, name := range []string{"C", "D"} {
		p, err := NamedSet(name)
		if err != nil {
			t.Fatal(err)
		}
		single, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
		if err != nil {
			t.Fatal(err)
		}
		base := single.LowerHEMult().Total
		prev := base
		for _, cores := range []int{2, 4, 8} {
			s := mustSharded(t, tpusim.TPUv6e(), cores, p)
			got := s.LowerHEMult().Total
			if got >= base {
				t.Errorf("Set%s %d cores: sharded HE-Mult %g ≥ single-core %g", name, cores, got, base)
			}
			// The largest set must keep improving through 8 cores;
			// smaller sets may hit their scaling knee earlier (the
			// collective latency term grows with the core count).
			if name == "D" && got >= prev {
				t.Errorf("Set%s %d cores: HE-Mult %g not below %d-core time %g", name, cores, got, cores/2, prev)
			}
			prev = got
		}
	}
}

// The pure limb-parallel NTT batch has no collectives and must scale
// nearly linearly when the batch divides evenly.
func TestShardedNTTScalesLinearly(t *testing.T) {
	p := SetD()
	single, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	base := single.LowerNTT(64).Total
	s := mustSharded(t, tpusim.TPUv6e(), 8, p)
	got := s.LowerNTT(64).Total
	want := single.LowerNTT(8).Total
	if got != want {
		t.Errorf("sharded NTT(64) on 8 cores = %g, want per-core NTT(8) = %g", got, want)
	}
	if base/got < 2 {
		t.Errorf("NTT batch speedup %g too low", base/got)
	}
}

// Collective time must appear in the pod trace (and only there), and
// the core trace must shrink as work shards.
func TestShardedTraceAccounting(t *testing.T) {
	p := SetD()
	s := mustSharded(t, tpusim.TPUv6e(), 4, p)
	pod := s.T.(*tpusim.Pod)
	pod.Reset()
	// The cost body, called outside lowerOp, charges the live traces.
	s.costKeySwitch()
	ici := s.CollectiveSeconds()
	if ici <= 0 {
		t.Fatal("key switch on 4 cores produced no collective time")
	}
	if pod.Cores[0].Trace.Seconds(tpusim.CatICI) != 0 {
		t.Error("collective time leaked into a core trace")
	}
	total := pod.TotalSeconds()
	if total <= ici {
		t.Error("pod total should include core compute on top of collectives")
	}
	// Lowering must not pollute either trace.
	before, coreBefore := pod.Trace.Total(), pod.Cores[0].Trace.Total()
	s.LowerHEMult()
	if pod.Trace.Total() != before || pod.Cores[0].Trace.Total() != coreBefore {
		t.Error("LowerHEMult polluted the pod traces")
	}
}

// Collective overhead must keep the model honest: with an absurdly slow
// ICI, sharding should stop paying off (no free lunch in the model).
func TestShardedRespectsICICost(t *testing.T) {
	p := SetC()
	spec := tpusim.TPUv6e()
	spec.ICIBandwidth = 1e6 // 1 MB/s
	spec.ICILatency = 1e-2  // 10 ms per hop
	single, err := Compile(tpusim.NewDevice(tpusim.TPUv6e()), p)
	if err != nil {
		t.Fatal(err)
	}
	base := single.LowerHEMult().Total
	s := mustSharded(t, spec, 8, p)
	got := s.LowerHEMult().Total
	if got <= base {
		t.Error("crippled ICI should make sharding slower than single-core")
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Error("degenerate sharded time")
	}
}
