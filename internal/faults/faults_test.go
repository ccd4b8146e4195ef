package faults

import (
	"math"
	"testing"
)

// TestRNGDeterministic: same seed, same stream; different seeds
// diverge immediately.
func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed streams diverged at draw %d", i)
		}
	}
	c, d := NewRNG(1), NewRNG(2)
	if c.Next() == d.Next() {
		t.Error("different seeds produced the same first draw")
	}
	var r RNG
	for i := 0; i < 10000; i++ {
		if u := r.Float64(); u < 0 || u >= 1 {
			t.Fatalf("Float64 outside [0,1): %g", u)
		}
		if e := r.Exp(0.5); e < 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("Exp draw invalid: %g", e)
		}
	}
}

// TestInjectorStreamIndependence: draining one pod's crash stream must
// not move any other stream — each pod's fault timeline is a pure
// function of (seed, pod).
func TestInjectorStreamIndependence(t *testing.T) {
	cfg := Config{Seed: 9, MTBFS: 1, MTTRS: 0.1,
		StragglerFactor: 4, StragglerMTBFS: 2, StragglerMeanS: 0.5,
		BatchErrorProb: 0.3, MaxRetries: 3, RetryBackoffS: 0.01}
	a := NewInjector(cfg, 3)
	b := NewInjector(cfg, 3)
	// Drain pod 0's streams on a only.
	for i := 0; i < 100; i++ {
		a.NextCrashDelay(0)
		a.RecoverDelay(0)
		a.NextStragglerDelay(0)
		a.StragglerDuration(0)
	}
	for i := 0; i < 10; i++ {
		d1, _ := a.NextCrashDelay(2)
		d2, _ := b.NextCrashDelay(2)
		if d1 != d2 {
			t.Fatalf("pod 2 crash stream moved by pod 0 draws: %g vs %g", d1, d2)
		}
		s1, _ := a.NextStragglerDelay(1)
		s2, _ := b.NextStragglerDelay(1)
		if s1 != s2 {
			t.Fatalf("pod 1 straggler stream moved by pod 0 draws: %g vs %g", s1, s2)
		}
		if a.LaunchFails() != b.LaunchFails() {
			t.Fatal("batch-error stream moved by pod-stream draws")
		}
		if a.RetryBackoff(i+1) != b.RetryBackoff(i+1) {
			t.Fatal("retry-jitter stream moved by pod-stream draws")
		}
	}
}

// TestInjectorDisabledDrawsNothing: disabled injectors consume no
// stream state, so enabling one injector never shifts another's
// timeline.
func TestInjectorDisabledDrawsNothing(t *testing.T) {
	in := NewInjector(Config{Seed: 5}, 2)
	if _, ok := in.NextCrashDelay(0); ok {
		t.Error("crash draw with MTBFS = 0")
	}
	if _, ok := in.NextStragglerDelay(0); ok {
		t.Error("straggler draw with factor = 0")
	}
	if in.LaunchFails() {
		t.Error("batch error with prob = 0")
	}
	// The batch stream must be untouched by the disabled calls above.
	ref := NewInjector(Config{Seed: 5, BatchErrorProb: 0.5}, 2)
	in2 := NewInjector(Config{Seed: 5, BatchErrorProb: 0.5}, 2)
	in2.NextCrashDelay(0)
	in2.NextStragglerDelay(1)
	for i := 0; i < 50; i++ {
		if ref.LaunchFails() != in2.LaunchFails() {
			t.Fatal("disabled injector calls consumed stream state")
		}
	}
}

// TestRetryBackoffShape: backoff doubles per attempt, caps at
// 2^RetryCapDoublings × base, and jitter stays within [0.5, 1) of the
// nominal value.
func TestRetryBackoffShape(t *testing.T) {
	base := 0.01
	in := NewInjector(Config{Seed: 3, MaxRetries: 20, RetryBackoffS: base}, 1)
	for k := 1; k <= 20; k++ {
		exp := k - 1
		if exp > RetryCapDoublings {
			exp = RetryCapDoublings
		}
		nominal := base * math.Pow(2, float64(exp))
		d := in.RetryBackoff(k)
		if d < 0.5*nominal || d >= nominal {
			t.Errorf("retry %d: backoff %g outside [%g, %g)", k, d, 0.5*nominal, nominal)
		}
	}
}

// TestConfigValidate pins accepted and rejected shapes.
func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{MTBFS: 1, MTTRS: 0.1},
		{StragglerFactor: 1},
		{StragglerFactor: 8, BatchErrorProb: 1},
		{DeadlineS: 0.5, MaxRetries: 3, QueueLimit: 10, Hedge: true},
	}
	for i, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []Config{
		{MTBFS: -1},
		{MTBFS: math.NaN()},
		{MTTRS: math.Inf(1)},
		{StragglerFactor: 0.99},
		{StragglerFactor: -2},
		{StragglerFactor: math.NaN()},
		{StragglerFactor: math.Inf(1)},
		{BatchErrorProb: -0.01},
		{BatchErrorProb: 1.01},
		{BatchErrorProb: math.NaN()},
		{MaxRetries: -1},
		{QueueLimit: -1},
		{DeadlineS: -0.5},
		{RetryBackoffS: -1},
		{HedgeDelayS: math.Inf(1)},
		{HeartbeatS: -3},
		{StragglerMeanS: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

// TestWithDefaults pins the horizon-relative resolution rules.
func TestWithDefaults(t *testing.T) {
	if got := (Config{}).WithDefaults(10); !got.IsZero() {
		t.Errorf("zero config grew defaults: %+v", got)
	}
	c := Config{MTBFS: 2}.WithDefaults(10)
	if c.Seed != 1 {
		t.Errorf("seed not defaulted: %d", c.Seed)
	}
	if c.MTTRS != 0.2 {
		t.Errorf("MTTR not MTBF/10: %g", c.MTTRS)
	}
	c = Config{StragglerFactor: 4}.WithDefaults(10)
	if c.StragglerMTBFS != 5 || c.StragglerMeanS != 1.25 {
		t.Errorf("straggler windows not horizon-derived: mtbf %g mean %g",
			c.StragglerMTBFS, c.StragglerMeanS)
	}
	c = Config{StragglerFactor: 4, MTBFS: 2, MTTRS: 0.5}.WithDefaults(10)
	if c.StragglerMTBFS != 2 || c.StragglerMeanS != 0.5 {
		t.Errorf("straggler windows should inherit crash timing: mtbf %g mean %g",
			c.StragglerMTBFS, c.StragglerMeanS)
	}
	// Service-time-derived fields stay zero for the serving layer.
	c = Config{MTBFS: 1, MaxRetries: 2, Hedge: true}.WithDefaults(10)
	if c.RetryBackoffS != 0 || c.HeartbeatS != 0 || c.HedgeDelayS != 0 {
		t.Errorf("pricing-derived fields resolved too early: %+v", c)
	}
	pinned := Config{MTBFS: 1, MTTRS: 3}.WithDefaults(10)
	if pinned.MTTRS != 3 {
		t.Errorf("pinned MTTR overwritten: %g", pinned.MTTRS)
	}
}

// TestPredicates pins IsZero / Crashes / Straggles.
func TestPredicates(t *testing.T) {
	if !(Config{}).IsZero() {
		t.Error("zero config not IsZero")
	}
	if (Config{Seed: 1}).IsZero() {
		t.Error("seeded config IsZero")
	}
	if !(Config{MTBFS: 1}).Crashes() || (Config{}).Crashes() {
		t.Error("Crashes predicate wrong")
	}
	if !(Config{StragglerFactor: 2}).Straggles() || (Config{StragglerFactor: 1}).Straggles() {
		t.Error("Straggles predicate wrong")
	}
}

// TestInjectorFleetSizePrefix: per-pod streams are split from the seed
// by pod index, so growing the fleet must not move any existing pod's
// fault timeline — pods 0..2 of a 3-pod injector and a 5-pod injector
// draw identical crash and straggler schedules. Heterogeneous serve
// fleets rely on this: regrouping pods into different device groups
// (same total count, or a larger fleet sharing a prefix) keeps the
// fault history of the shared prefix byte-identical.
func TestInjectorFleetSizePrefix(t *testing.T) {
	cfg := Config{Seed: 17, MTBFS: 2, MTTRS: 0.2,
		StragglerFactor: 3, StragglerMTBFS: 1, StragglerMeanS: 0.25}
	small := NewInjector(cfg, 3)
	large := NewInjector(cfg, 5)
	for pod := 0; pod < 3; pod++ {
		for i := 0; i < 200; i++ {
			ds, _ := small.NextCrashDelay(pod)
			dl, _ := large.NextCrashDelay(pod)
			if ds != dl {
				t.Fatalf("pod %d crash draw %d moved by fleet size: %g vs %g", pod, i, ds, dl)
			}
			if rs, rl := small.RecoverDelay(pod), large.RecoverDelay(pod); rs != rl {
				t.Fatalf("pod %d recover draw %d moved by fleet size: %g vs %g", pod, i, rs, rl)
			}
			ss, _ := small.NextStragglerDelay(pod)
			sl, _ := large.NextStragglerDelay(pod)
			if ss != sl {
				t.Fatalf("pod %d straggler draw %d moved by fleet size: %g vs %g", pod, i, ss, sl)
			}
		}
	}
}
