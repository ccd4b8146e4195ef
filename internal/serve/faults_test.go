package serve

import (
	"encoding/json"
	"errors"
	"os"
	"testing"

	"cross/internal/faults"
	"cross/internal/sweep"
)

// goldenConfig is the scenario frozen in testdata/golden_prefault.json,
// generated by the pre-fault-layer simulator. Overloaded enough
// (rate 1200 ≫ capacity) that batching engages.
func goldenConfig() Config {
	return Config{
		Seed: 7, Spec: "TPUv5e", Set: "B", Pods: 3, Rate: 1200,
		Policy: PolicyJSQ, HorizonS: 0.05, MaxBatch: 4,
	}
}

// TestServeGoldenPreFault is the backward-compatibility contract: with
// no fault config — nil or the zero value — the refactored event loop
// must reproduce the pre-PR record byte-for-byte, so committed
// CLI smoke records survive the fault layer.
func TestServeGoldenPreFault(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_prefault.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		faults *faults.Config
	}{
		{"nil-faults", nil},
		{"zero-faults", &faults.Config{}},
	} {
		cfg := goldenConfig()
		cfg.Faults = tc.faults
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: record drifted from the pre-fault golden\n got: %.200s…\nwant: %.200s…",
				tc.name, got, want)
		}
	}
}

// faultyConfig is the standard everything-on scenario the fault tests
// share: crashes, stragglers, batch errors, deadlines, retries,
// hedging, and admission control all exercised in one run.
func faultyConfig() Config {
	return Config{
		Seed: 7, Spec: "TPUv5e", Set: "B", Pods: 4, Rate: 1500,
		Policy: PolicyJSQ, HorizonS: 0.1, MaxBatch: 4,
		Mix: []MixEntry{
			{Workload: sweep.WorkloadHEMult, Weight: 0.6},
			{Workload: sweep.WorkloadRotate, Weight: 0.4},
		},
		Faults: &faults.Config{
			Seed: 3, MTBFS: 0.04, MTTRS: 0.008,
			StragglerFactor: 6, BatchErrorProb: 0.05,
			DeadlineS: 0.05, MaxRetries: 3, Hedge: true, QueueLimit: 64,
		},
	}
}

// TestServeFaultsDeterministic extends the determinism contract to
// fault runs: the JSON record is bit-identical across runs and across
// pre-pricing worker counts — every fault draw comes from the owned
// injector streams, never from event-loop concurrency (there is none)
// or math/rand.
func TestServeFaultsDeterministic(t *testing.T) {
	var golden []byte
	for _, parallel := range []int{1, 4, 8} {
		for run := 0; run < 2; run++ {
			cfg := faultyConfig()
			cfg.Parallel = parallel
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = got
				if r.Availability == nil {
					t.Fatal("fault run produced no availability section")
				}
				if r.Availability.Crashes == 0 || r.Availability.Retries == 0 {
					t.Fatalf("fault scenario too tame to test determinism: %+v", r.Availability)
				}
				continue
			}
			if string(got) != string(golden) {
				t.Fatalf("parallel=%d run=%d: fault record drifted from golden", parallel, run)
			}
		}
	}
}

// TestServeFaultSeedIndependence: fault streams are seeded apart from
// arrivals, so changing the fault seed replays the identical request
// trace under a different fault timeline — the replay property chaos
// debugging depends on.
func TestServeFaultSeedIndependence(t *testing.T) {
	a, err := Run(faultyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := faultyConfig()
	cfg.Faults.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests {
		t.Errorf("fault seed changed the arrival trace: %d vs %d requests", a.Requests, b.Requests)
	}
	if a.Availability.Crashes == b.Availability.Crashes && a.Latency == b.Latency {
		t.Error("fault seed change left the fault timeline identical")
	}
}

// TestServeFaultAccounting: every request resolves into exactly one
// terminal bucket, and the per-pod/per-workload views agree with the
// fleet totals.
func TestServeFaultAccounting(t *testing.T) {
	for _, policy := range Policies {
		cfg := faultyConfig()
		cfg.Policy = policy
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		av := r.Availability
		if av == nil {
			t.Fatalf("%s: no availability section", policy)
		}
		if got := r.Completed + av.Shed + av.TimedOut + av.Failed; got != r.Requests {
			t.Errorf("%s: completed %d + shed %d + timed out %d + failed %d = %d, want %d requests",
				policy, r.Completed, av.Shed, av.TimedOut, av.Failed, got, r.Requests)
		}
		if av.Late > av.TimedOut {
			t.Errorf("%s: late deliveries %d exceed timed out %d", policy, av.Late, av.TimedOut)
		}
		var served, wl int
		for _, p := range r.Pods {
			served += p.Served
			if p.Utilization < 0 || p.Utilization > 1 {
				t.Errorf("%s: pod %d utilization %g outside [0,1]", policy, p.Pod, p.Utilization)
			}
		}
		for _, w := range r.Workloads {
			wl += w.Requests
		}
		delivered := r.Completed + av.Late
		if served != delivered || wl != delivered {
			t.Errorf("%s: delivery accounting mismatch: pods %d, workloads %d, delivered %d",
				policy, served, wl, delivered)
		}
		if av.HedgesWon > av.Hedges {
			t.Errorf("%s: hedges won %d exceed hedges issued %d", policy, av.HedgesWon, av.Hedges)
		}
		for i, d := range av.PodDowntimeS {
			if d < 0 || d > r.MakespanS {
				t.Errorf("%s: pod %d downtime %g outside [0, makespan %g]", policy, i, d, r.MakespanS)
			}
		}
		if av.LatencyGood.P99S > 0 && cfg.Faults.DeadlineS > 0 &&
			av.LatencyGood.MaxS > cfg.Faults.DeadlineS {
			t.Errorf("%s: in-deadline latency max %g exceeds deadline %g",
				policy, av.LatencyGood.MaxS, cfg.Faults.DeadlineS)
		}
	}
}

// TestGoodputDegradesWithMTBF is the first validated shape: at fixed
// offered load, goodput falls monotonically as the crash MTBF shrinks
// (pods spend more of the run dead, so less work completes in
// deadline).
func TestGoodputDegradesWithMTBF(t *testing.T) {
	probe, err := Run(Config{
		Spec: "TPUv5e", Set: "B", Pods: 4, MaxBatch: 4,
		HorizonS: 0.001, Mix: hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// 80% of capacity: healthy pods absorb the load, but every pod-down
	// window pushes the survivors past saturation, so queues grow and
	// deadlines fire — downtime converts directly into lost goodput.
	rate := 0.8 * probe.CapacityRate
	horizon := 1000 / rate
	cfg := Config{
		Seed: 5, Spec: "TPUv5e", Set: "B", Pods: 4, Rate: rate,
		HorizonS: horizon, MaxBatch: 4, Mix: hemultOnly(),
		Faults: &faults.Config{
			Seed: 11, MTTRS: horizon / 20,
			DeadlineS: 40 / probe.CapacityRate, MaxRetries: 2,
		},
	}
	chaos, err := Chaos(ChaosConfig{
		Serve:    cfg,
		MTBFGrid: []float64{0, horizon, horizon / 4, horizon / 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range chaos.Points {
		t.Logf("mtbf %.4gs: goodput %.1f req/s, completed %d/%d, crashes %d, downtime %.1f%%",
			p.MTBFS, p.Goodput, p.Completed, p.Requests, p.Crashes, 100*p.DowntimeFrac)
		if i == 0 {
			continue
		}
		prev := chaos.Points[i-1]
		if p.Goodput > prev.Goodput {
			t.Errorf("goodput rose as MTBF shrank: %.1f at mtbf %g → %.1f at mtbf %g",
				prev.Goodput, prev.MTBFS, p.Goodput, p.MTBFS)
		}
	}
	first, last := chaos.Points[0], chaos.Points[len(chaos.Points)-1]
	if last.Goodput >= first.Goodput {
		t.Errorf("no degradation across the grid: %.1f (no crashes) vs %.1f (mtbf %g)",
			first.Goodput, last.Goodput, last.MTBFS)
	}
	if last.Crashes == 0 || last.DowntimeFrac <= 0 {
		t.Errorf("harshest cell injected no faults: crashes %d, downtime %g",
			last.Crashes, last.DowntimeFrac)
	}
}

// TestRetriesHedgingImproveGoodput is the second validated shape:
// under pod crashes, turning on retries and hedging strictly recovers
// goodput versus a no-recovery client on the same arrival and fault
// timeline.
func TestRetriesHedgingImproveGoodput(t *testing.T) {
	base := Config{
		Seed: 5, Spec: "TPUv5e", Set: "B", Pods: 4, Rate: 1200,
		HorizonS: 0.2, MaxBatch: 4, Mix: hemultOnly(),
		Faults: &faults.Config{
			Seed: 11, MTBFS: 0.03, MTTRS: 0.01,
		},
	}
	bare, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	f := *base.Faults
	f.MaxRetries = 4
	f.Hedge = true
	cfg.Faults = &f
	recovered, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("no recovery: goodput %.1f (completed %d, failed %d); retries+hedge: goodput %.1f (completed %d, retries %d, hedges %d won %d)",
		bare.AchievedRate, bare.Completed, bare.Availability.Failed,
		recovered.AchievedRate, recovered.Completed,
		recovered.Availability.Retries, recovered.Availability.Hedges, recovered.Availability.HedgesWon)
	if bare.Availability.Failed == 0 {
		t.Fatal("crash scenario lost no requests — widen it so recovery has work to do")
	}
	if recovered.Completed <= bare.Completed {
		t.Errorf("retries+hedging did not recover completions: %d vs %d",
			recovered.Completed, bare.Completed)
	}
	if recovered.AchievedRate <= bare.AchievedRate {
		t.Errorf("retries+hedging did not lift goodput: %.1f vs %.1f",
			recovered.AchievedRate, bare.AchievedRate)
	}
	if recovered.Availability.Retries == 0 {
		t.Error("recovery run consumed no retries")
	}
}

// TestDeadlineSheddingBoundsTail is the third validated shape: past
// the saturation knee, deadlines plus queue-depth admission control
// bound the tail of what completes — the degraded fleet saturates
// gracefully instead of growing queues without bound — at the price of
// serving fewer requests.
func TestDeadlineSheddingBoundsTail(t *testing.T) {
	probe, err := Run(Config{
		Spec: "TPUv4", Set: "A", Pods: 2, MaxBatch: 4,
		HorizonS: 0.001, Mix: hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rate := 2.5 * probe.CapacityRate // far past the knee
	horizon := 600 / rate
	base := Config{
		Seed: 3, Spec: "TPUv4", Set: "A", Pods: 2, MaxBatch: 4,
		Rate: rate, HorizonS: horizon, Mix: hemultOnly(),
	}
	unbounded, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	deadline := 40 / rate // the time 40 arrivals take ≈ 16 capacity-paced services
	shedding := base
	shedding.Faults = &faults.Config{
		Seed: 1, DeadlineS: deadline, QueueLimit: 16,
	}
	bounded, err := Run(shedding)
	if err != nil {
		t.Fatal(err)
	}
	av := bounded.Availability
	t.Logf("no shedding: p99 %.4fs over %d; shed+deadline: p99-of-completed %.4fs over %d (shed %d, timed out %d)",
		unbounded.Latency.P99S, unbounded.Completed,
		av.LatencyGood.P99S, bounded.Completed, av.Shed, av.TimedOut)
	if av.Shed == 0 && av.TimedOut == 0 {
		t.Fatal("overloaded run shed nothing — tighten the limits")
	}
	if bounded.Completed == 0 {
		t.Fatal("shedding run completed nothing")
	}
	if av.LatencyGood.P99S >= unbounded.Latency.P99S {
		t.Errorf("shedding did not bound the completed tail: p99 %g vs unbounded %g",
			av.LatencyGood.P99S, unbounded.Latency.P99S)
	}
	if av.LatencyGood.MaxS > deadline {
		t.Errorf("completed-past-deadline leak: max %g > deadline %g", av.LatencyGood.MaxS, deadline)
	}
	if bounded.MaxQueueDepth > unbounded.MaxQueueDepth {
		t.Errorf("admission control grew the peak queue: %d vs %d",
			bounded.MaxQueueDepth, unbounded.MaxQueueDepth)
	}
}

// TestStragglerHedging: straggler windows slow a pod's launches; a
// hedge on a healthy pod beats the inflated primary, so hedging wins
// strictly improve the straggled tail.
func TestStragglerHedging(t *testing.T) {
	base := Config{
		Seed: 9, Spec: "TPUv5e", Set: "B", Pods: 4, Rate: 900,
		HorizonS: 0.2, MaxBatch: 4, Mix: hemultOnly(),
		Faults: &faults.Config{
			Seed: 7, StragglerFactor: 10, StragglerMTBFS: 0.05, StragglerMeanS: 0.02,
		},
	}
	slow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	f := *base.Faults
	f.Hedge = true
	cfg.Faults = &f
	hedged, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("straggling: p99 %.4fs; hedged: p99 %.4fs (%d hedges, %d won)",
		slow.Latency.P99S, hedged.Latency.P99S,
		hedged.Availability.Hedges, hedged.Availability.HedgesWon)
	if hedged.Availability.HedgesWon == 0 {
		t.Fatal("no hedge beat a straggling primary — widen the scenario")
	}
	if hedged.Latency.P99S >= slow.Latency.P99S {
		t.Errorf("hedging did not cut the straggled tail: p99 %g vs %g",
			hedged.Latency.P99S, slow.Latency.P99S)
	}
}

// TestChaosDeterministicAndOrdered: the chaos sweep is a pure function
// of its config, and its grid is emitted healthiest-first regardless
// of input order.
func TestChaosDeterministic(t *testing.T) {
	cc := ChaosConfig{
		Serve: Config{
			Seed: 5, Spec: "TPUv5e", Set: "B", Pods: 3, Rate: 900,
			HorizonS: 0.05, MaxBatch: 4, Mix: hemultOnly(),
			Faults: &faults.Config{Seed: 2, MTTRS: 0.005, DeadlineS: 0.05, MaxRetries: 1},
		},
		MTBFGrid: []float64{0.01, 0, 0.04},
	}
	a, err := Chaos(cc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chaos(cc)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Error("chaos sweep not deterministic across runs")
	}
	want := []float64{0, 0.04, 0.01}
	for i, p := range a.Points {
		if p.MTBFS != want[i] {
			t.Fatalf("grid order: point %d has mtbf %g, want %g", i, p.MTBFS, want[i])
		}
	}
	if a.Points[0].Crashes != 0 {
		t.Errorf("crash-free cell recorded %d crashes", a.Points[0].Crashes)
	}
	// The zero-MTBF cell keeps the recovery config, so its availability
	// section must still be present (deadline accounting applies).
	if a.Points[0].Completed+a.Points[0].TimedOut+a.Points[0].Shed+a.Points[0].Failed != a.Points[0].Requests {
		t.Error("crash-free cell accounting does not add up")
	}
}

// TestServeFaultValidation: malformed fault configs are rejected, and
// the duplicate-mix satellite fix reports its named error.
func TestServeFaultValidation(t *testing.T) {
	bad := []*faults.Config{
		{MTBFS: -1},
		{MTTRS: -0.5},
		{StragglerFactor: 0.5},
		{BatchErrorProb: 1.5},
		{BatchErrorProb: -0.1},
		{MaxRetries: -1},
		{QueueLimit: -2},
		{DeadlineS: -1},
		{HeartbeatS: -1},
	}
	for i, f := range bad {
		cfg := Config{Spec: "TPUv5e", HorizonS: 0.01, Mix: hemultOnly(), Faults: f}
		if _, err := Run(cfg); err == nil {
			t.Errorf("fault config %d accepted: %+v", i, f)
		}
	}
}

// TestDuplicateMixRejected pins the satellite bugfix: two entries for
// one workload must be rejected with the named error instead of
// silently splitting the class.
func TestDuplicateMixRejected(t *testing.T) {
	_, err := Run(Config{
		Spec: "TPUv5e", HorizonS: 0.01,
		Mix: []MixEntry{
			{Workload: sweep.WorkloadHEMult, Weight: 0.5},
			{Workload: sweep.WorkloadRotate, Weight: 0.2},
			{Workload: sweep.WorkloadHEMult, Weight: 0.3},
		},
	})
	if err == nil {
		t.Fatal("duplicate mix entry accepted")
	}
	if !errors.Is(err, ErrDuplicateWorkload) {
		t.Errorf("duplicate mix error %v does not wrap ErrDuplicateWorkload", err)
	}
}

// TestCompletedDerivedFromFinishEvents pins the satellite bugfix: the
// fault-free simulator still completes every offered request, and the
// field is now derived by counting finish events, not assumed from the
// arrival count.
func TestCompletedDerivedFromFinishEvents(t *testing.T) {
	r, err := Run(Config{
		Seed: 13, Spec: "TPUv5e", Set: "B", Pods: 2,
		HorizonS: 0.03, MaxBatch: 4, Mix: hemultOnly(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests == 0 {
		t.Fatal("no arrivals")
	}
	if r.Completed != r.Requests {
		t.Errorf("fault-free run: derived completed %d != requests %d", r.Completed, r.Requests)
	}
	if r.Availability != nil {
		t.Error("fault-free run grew an availability section")
	}
}
