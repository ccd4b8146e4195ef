// Package faults is the deterministic fault model for the serving
// simulator (DESIGN.md §16). It owns three injectors — pod
// crash/recover (exponential MTBF/MTTR per pod), transient stragglers
// (a pod's service times are multiplied by a slowdown factor for an
// exponential-duration window), and batch-level transient errors
// (i.i.d. per-launch failure probability) — plus the client-side
// recovery knobs (per-request deadlines, capped-exponential retry
// backoff, hedged dispatch, admission control, heartbeat detection)
// that internal/serve threads through its event loop.
//
// Determinism contract: every draw comes from splitmix64 streams owned
// by this package, seeded independently of the arrival PRNG — the same
// request stream replays under different fault seeds, and the same
// fault timeline replays under different arrival seeds. Each pod gets
// its own crash stream and straggler stream (derived from the seed by
// stream splitting), so a pod's fault timeline does not depend on what
// the rest of the fleet is doing; batch-error and retry-jitter draws
// come from two more dedicated streams consumed in event order, which
// the sequential event loop makes total.
package faults

import (
	"fmt"
	"math"
)

// RNG is a splitmix64 generator — the same construction the serving
// simulator uses for arrivals, duplicated here so the fault model's
// streams depend on nothing outside this package.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded at s.
func NewRNG(s uint64) RNG { return RNG{state: s} }

// Next returns the next 64 uniform bits.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Next()>>11) / (1 << 53)
}

// Exp returns an exponential draw with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	// 1−u ∈ (0, 1], so the log argument is never zero.
	return -math.Log(1-r.Float64()) * mean
}

// Config selects one fault-and-recovery scenario. The zero value
// disables everything: a serve run with a zero Config is bit-identical
// to a fault-free run (the serving layer drops it from the record
// echo, so the JSON is byte-identical too).
type Config struct {
	// Seed drives every injector stream; independent of the arrival
	// seed. 0 resolves to 1 when any injector is enabled.
	Seed int64 `json:"seed"`

	// Pod crash/recover injector: per-pod exponential mean time
	// between crashes (0 = no crashes) and mean time to recover
	// (0 resolves to MTBFS/10). An in-flight batch on a crashed pod is
	// lost; its requests re-enter dispatch through the retry path.
	MTBFS float64 `json:"mtbf_s"`
	MTTRS float64 `json:"mttr_s"`

	// Transient-straggler injector: while a window is open the pod's
	// service times are multiplied by StragglerFactor (> 1 enables;
	// window inter-arrival and duration are exponential with the given
	// means, defaulting to MTBFS/MTTRS or horizon-derived values).
	StragglerFactor float64 `json:"straggler_factor"`
	StragglerMTBFS  float64 `json:"straggler_mtbf_s"`
	StragglerMeanS  float64 `json:"straggler_mean_s"`

	// BatchErrorProb is the i.i.d. probability that a batch launch
	// fails transiently: it occupies the pod for the full service time
	// and then delivers nothing, sending its requests to retry.
	BatchErrorProb float64 `json:"batch_error_prob"`

	// DeadlineS is the per-request deadline measured from arrival
	// (0 = none). A request that reaches its deadline counts as timed
	// out — never as completed — even if a batch later delivers it.
	DeadlineS float64 `json:"deadline_s"`

	// MaxRetries caps how many times a request lost to a crash or a
	// batch error is re-dispatched (with capped exponential backoff and
	// deterministic jitter); past the cap it counts as failed.
	// RetryBackoffS is the backoff base (0 resolves to the mix-weighted
	// single-request service time).
	MaxRetries    int     `json:"max_retries"`
	RetryBackoffS float64 `json:"retry_backoff_s"`

	// Hedge enables hedged dispatch: if a batch is still unfinished
	// HedgeDelayS after launch, a copy launches on an idle pod and the
	// first finisher wins (the loser is cancelled). HedgeDelayS = 0
	// derives the delay per launch as HedgeAutoFactor × the batch's
	// nominal service time — beyond the fault-free p99 by construction,
	// since fault-free service times are deterministic.
	Hedge       bool    `json:"hedge"`
	HedgeDelayS float64 `json:"hedge_delay_s"`

	// QueueLimit sheds arrivals (and retries) when the dispatched-to
	// pod already holds this many queued requests (0 = unbounded) —
	// the admission control that keeps a degraded fleet's queues from
	// growing without bound.
	QueueLimit int `json:"queue_limit"`

	// HeartbeatS is the detection timeout: a crashed pod keeps
	// receiving dispatches until a heartbeat timeout this long after
	// the crash marks it down (no oracle knowledge); its queued
	// requests are then re-routed. 0 resolves to the mix-weighted
	// single-request service time.
	HeartbeatS float64 `json:"heartbeat_s"`
}

// HedgeAutoFactor is the auto-derived hedge delay in units of the
// batch's nominal service time (Config.HedgeDelayS = 0).
const HedgeAutoFactor = 2.0

// RetryCapDoublings caps the exponential backoff at
// RetryBackoffS × 2^RetryCapDoublings.
const RetryCapDoublings = 6

// IsZero reports whether the config is the all-disabled zero value.
func (c Config) IsZero() bool { return c == Config{} }

// Validate rejects configurations the simulator cannot run.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"mtbf_s", c.MTBFS}, {"mttr_s", c.MTTRS},
		{"straggler_mtbf_s", c.StragglerMTBFS}, {"straggler_mean_s", c.StragglerMeanS},
		{"deadline_s", c.DeadlineS}, {"retry_backoff_s", c.RetryBackoffS},
		{"hedge_delay_s", c.HedgeDelayS}, {"heartbeat_s", c.HeartbeatS},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be finite and ≥ 0, got %g", f.name, f.v)
		}
	}
	if c.StragglerFactor != 0 && (!(c.StragglerFactor >= 1) || math.IsInf(c.StragglerFactor, 1)) {
		return fmt.Errorf("faults: straggler factor must be finite and ≥ 1 (or 0 = off), got %g", c.StragglerFactor)
	}
	if c.BatchErrorProb < 0 || c.BatchErrorProb > 1 || math.IsNaN(c.BatchErrorProb) {
		return fmt.Errorf("faults: batch error probability must be in [0, 1], got %g", c.BatchErrorProb)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("faults: max retries must be ≥ 0, got %d", c.MaxRetries)
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("faults: queue limit must be ≥ 0, got %d", c.QueueLimit)
	}
	return nil
}

// Crashes reports whether the crash/recover injector is enabled.
func (c Config) Crashes() bool { return c.MTBFS > 0 }

// Straggles reports whether the straggler injector is enabled.
func (c Config) Straggles() bool { return c.StragglerFactor > 1 }

// WithDefaults resolves zero-valued timing fields against the serving
// horizon. RetryBackoffS and HeartbeatS stay zero here — they default
// to service-time-derived values the serving layer resolves after
// pricing.
func (c Config) WithDefaults(horizonS float64) Config {
	if c.IsZero() {
		return c
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Crashes() && c.MTTRS == 0 {
		c.MTTRS = c.MTBFS / 10
	}
	if c.Straggles() {
		if c.StragglerMTBFS == 0 {
			if c.MTBFS > 0 {
				c.StragglerMTBFS = c.MTBFS
			} else {
				c.StragglerMTBFS = horizonS / 2
			}
		}
		if c.StragglerMeanS == 0 {
			if c.MTTRS > 0 {
				c.StragglerMeanS = c.MTTRS
			} else {
				c.StragglerMeanS = horizonS / 8
			}
		}
	}
	return c
}

// Injector is the run-time fault source for one fleet: per-pod crash
// and straggler streams plus fleet-wide batch-error and retry-jitter
// streams, all split deterministically from the config seed.
type Injector struct {
	cfg    Config
	crash  []RNG
	strag  []RNG
	batch  RNG
	jitter RNG
}

// NewInjector splits the seed into 2×pods + 2 independent streams.
func NewInjector(cfg Config, pods int) *Injector {
	split := NewRNG(uint64(cfg.Seed))
	in := &Injector{
		cfg:   cfg,
		crash: make([]RNG, pods),
		strag: make([]RNG, pods),
	}
	for i := 0; i < pods; i++ {
		in.crash[i] = NewRNG(split.Next())
		in.strag[i] = NewRNG(split.Next())
	}
	in.batch = NewRNG(split.Next())
	in.jitter = NewRNG(split.Next())
	return in
}

// NextCrashDelay draws the time until the pod's next crash; ok is
// false when the crash injector is disabled.
func (in *Injector) NextCrashDelay(pod int) (d float64, ok bool) {
	if !in.cfg.Crashes() {
		return 0, false
	}
	return in.crash[pod].Exp(in.cfg.MTBFS), true
}

// RecoverDelay draws the pod's time-to-recover for one crash.
func (in *Injector) RecoverDelay(pod int) float64 {
	return in.crash[pod].Exp(in.cfg.MTTRS)
}

// NextStragglerDelay draws the time until the pod's next straggler
// window opens; ok is false when the injector is disabled.
func (in *Injector) NextStragglerDelay(pod int) (d float64, ok bool) {
	if !in.cfg.Straggles() {
		return 0, false
	}
	return in.strag[pod].Exp(in.cfg.StragglerMTBFS), true
}

// StragglerDuration draws how long the pod's current window stays open.
func (in *Injector) StragglerDuration(pod int) float64 {
	return in.strag[pod].Exp(in.cfg.StragglerMeanS)
}

// LaunchFails draws one batch-level transient error. No stream is
// consumed when the injector is disabled.
func (in *Injector) LaunchFails() bool {
	if in.cfg.BatchErrorProb <= 0 {
		return false
	}
	return in.batch.Float64() < in.cfg.BatchErrorProb
}

// RetryBackoff returns the jittered, capped exponential backoff before
// a request's k-th retry (k ≥ 1): min(base·2^(k−1), base·2^cap) scaled
// by a uniform draw in [0.5, 1).
func (in *Injector) RetryBackoff(k int) float64 {
	base := in.cfg.RetryBackoffS
	exp := k - 1
	if exp > RetryCapDoublings {
		exp = RetryCapDoublings
	}
	d := base * float64(uint64(1)<<exp)
	return d * (0.5 + 0.5*in.jitter.Float64())
}
