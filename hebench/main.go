// Command hebench is the repository's benchmark: it runs one workload
// in a closed loop with one client (the next job starts once the
// previous one is checked) and reports its end-to-end metrics, or,
// with -trace 1, its per-layer metrics from spans the benchmark
// records around every call into the program.
//
// Workloads:
//
//	helr-train   encrypted logistic-regression gradients (N=2^12, 6 limbs)
//	cnn-infer    encrypted 28×28 CNN inference (N=2^13, 4 limbs)
//	fleet-model  a one-set (175-case) model sweep plus a fault-injected fleet simulation
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash hebench/run.sh --workload helr-train --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check makes the
// exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cross/internal/hostbench"
)

// bench is one set-up workload.
type bench interface {
	// prepare generates job j's inputs and reference (untimed) and
	// returns the job, which runs and checks them (timed).
	prepare(j int) job
	// probe measures the layer costs a job cannot separate from
	// outside: unit kernel costs (host workloads), or the lowering and
	// pricing layers alone (fleet-model). Traced runs only, repeated
	// every probeEvery jobs so the costs follow the host's speed.
	probe() (map[string]float64, error)
}

// job runs one request and checks its output.
type job func() (outcome, error)

// outcome is what one job did.
type outcome struct {
	units     float64            // examples, images or simulated requests done
	bits      float64            // precision of the checked output, in bits
	worstBits float64            // precision of its worst slot, in bits
	layer     map[string]float64 // per-layer values the job measured itself
}

// workload describes one workload of the benchmark.
type workload struct {
	setup func(o options, tr *tracer) (bench, error)
	unit  string // what throughput_per_s counts
}

var workloads = map[string]workload{
	"helr-train":  {setup: newHELR, unit: "training examples"},
	"cnn-infer":   {setup: newCNN, unit: "images"},
	"fleet-model": {setup: newFleet, unit: "simulated requests"},
}

// metric is one reported metric definition.
type metric struct{ name, unit string }

// ckksOps are the traced ckks entry points.
var ckksOps = []string{"encrypt", "decrypt", "mulrelin", "rescale", "rotate", "rotate_hoisted", "mulplain", "add", "evalpoly", "lintrans"}

// perLayer lists the traced run's metrics, as BENCHMARK.json declares them.
var perLayer = func() []metric {
	var ms []metric
	for _, op := range ckksOps {
		ms = append(ms, metric{"ckks." + op + ".ms", "ms"}, metric{"ckks." + op + ".calls", "count"})
	}
	ms = append(ms,
		metric{"ckks.server_ms", "ms"}, metric{"ckks.kernel_sum_ms", "ms"},
		metric{"ckks.glue_ms", "ms"}, metric{"ckks.glue_frac", "ratio"},
		metric{"ckks.alloc_mb", "MB"},
		metric{"ring.ntt_limbs", "count"}, metric{"ring.intt_limbs", "count"},
		metric{"ring.automorph_limbs", "count"}, metric{"rns.bconv_calls", "count"},
		metric{"modarith.vecmul_n", "count"}, metric{"modarith.vecadd_n", "count"},
		metric{"ring.ntt_us", "us"}, metric{"ring.intt_us", "us"},
		metric{"ring.automorph_us", "us"}, metric{"rns.bconv_us", "us"},
		metric{"modarith.vecmul_us", "us"}, metric{"modarith.vecadd_us", "us"},
		metric{"sweep.run_ms", "ms"}, metric{"sweep.records", "count"},
	)
	for _, wl := range []string{"HE-Mult", "Rotate", "Bootstrap", "MNIST", "HELR"} {
		ms = append(ms, metric{"cross.lower_ms." + wl, "ms"})
	}
	ms = append(ms,
		metric{"serve.run_ms", "ms"}, metric{"serve.price_ms", "ms"},
		metric{"serve.sim_req_per_s", "1/s"}, metric{"serve.alloc_b_per_req", "B"},
		metric{"serve.requests", "count"}, metric{"serve.completed", "count"},
		metric{"serve.shed", "count"}, metric{"serve.timed_out", "count"},
		metric{"serve.failed", "count"}, metric{"faults.retries", "count"},
		metric{"faults.hedges", "count"}, metric{"faults.crashes", "count"},
		metric{"faults.batch_errors", "count"},
		metric{"workload.self_ms", "ms"}, metric{"trace_overhead_frac", "ratio"},
	)
	return ms
}()

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	traceOut  string
	warmup    int
	setupReps int     // at least this many set-ups…
	setupS    float64 // …and until they have taken this many seconds
	workers   int
	smoke     bool // tests: a shorter serving horizon
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: helr-train, cnn-infer or fleet-model")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; drives every generated input")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the measured phase, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&o.traceOut, "trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(stderr, "hebench: unknown workload %q\n", o.workload)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "hebench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	if o.traceOut == "" {
		o.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", o.workload, o.seed)
	}
	// A set-up of a few milliseconds is repeated until the median is
	// steady; a slow one is timed five times.
	o.warmup, o.setupReps, o.setupS = 2, 5, 3
	// Host CKKS work runs on one goroutine; the model's worker pools
	// get every CPU, never more.
	o.workers = runtime.NumCPU()

	res, err := measure(o, nil)
	if err != nil {
		fmt.Fprintf(stderr, "hebench: %v\n", err)
		return 2
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	context  runContext
	samples  map[string]int // metric → sample count behind it
	notes    []string       // reported figures that are not metrics
	firstErr error
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runContext is where and how the run happened.
type runContext struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     bool                  `json:"trace"`
	Seconds   float64               `json:"seconds"`
	Env       hostbench.Environment `json:"env"`
	Nproc     int                   `json:"nproc"`
	Warmup    int                   `json:"warmup_jobs"`
	SetupReps int                   `json:"setup_reps"`
	Workers   int                   `json:"model_workers"`
	HostProcs int                   `json:"host_ckks_goroutines"`
	Unit      string                `json:"throughput_unit"`
}

func (r *result) print(w io.Writer) {
	ctx, _ := json.Marshal(r.context)
	fmt.Fprintf(w, "context %s\n", ctx)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	failFrac := 0.0
	if r.Attempted > 0 {
		failFrac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(w, "fail_frac %g (%d of %d jobs failed)\n", failFrac, r.Failed, r.Attempted)
	for _, note := range r.notes {
		fmt.Fprintln(w, note)
	}
	if r.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", r.firstErr)
	}
	out, _ := json.Marshal(r)
	fmt.Fprintf(w, "%s\n", out)
}

// phase is one stretch of closed-loop jobs.
type phase struct {
	latMs     []float64 // each job's wall-clock latency
	cpuMs     []float64 // each job's process CPU time, every thread
	wallS     float64   // wall clock of the phase, input generation and GC included
	cpuS      float64   // process CPU time of the phase, likewise
	rssMB     []float64 // resident set size after each job
	units     float64
	attempted int
	failed    int
	bits      []float64 // each job's output precision
	worstBits []float64 // each job's worst slot's precision
	firstErr  error
	perJob    []jobRecord
}

type jobRecord struct {
	j       int
	layer   map[string]float64
	allocMB float64
	probe   map[string]float64 // the probe taken last before the job
}

// probeEvery is how many traced jobs share one probe.
const probeEvery = 8

// add appends q's jobs to p.
func (p *phase) add(q phase) {
	p.latMs = append(p.latMs, q.latMs...)
	p.cpuMs = append(p.cpuMs, q.cpuMs...)
	p.wallS += q.wallS
	p.cpuS += q.cpuS
	p.rssMB = append(p.rssMB, q.rssMB...)
	p.units += q.units
	p.attempted += q.attempted
	p.failed += q.failed
	p.bits = append(p.bits, q.bits...)
	p.worstBits = append(p.worstBits, q.worstBits...)
	p.firstErr = firstNonNil(p.firstErr, q.firstErr)
	p.perJob = append(p.perJob, q.perJob...)
}

// loop runs jobs first, first+1, … until the phase has lasted seconds
// (at least one job). With the tracer on, each job is one span and its
// allocations are counted. No collection is forced between jobs: the
// GC cycles a job's garbage causes land inside the jobs, as they would
// in a server.
func loop(b bench, tr *tracer, first int, seconds float64) phase {
	var ph phase
	start, cpuStart := time.Now(), cpuMs()
	for j := first; j == first || time.Since(start).Seconds() < seconds; j++ {
		run := b.prepare(j)
		var m0, m1 runtime.MemStats
		if tr.enabled() {
			tr.job = j
			runtime.ReadMemStats(&m0)
		}
		s := tr.begin("job")
		t0, c0 := time.Now(), cpuMs()
		out, err := run()
		dt, dc := time.Since(t0), cpuMs()-c0
		tr.end(s)
		ph.rssMB = append(ph.rssMB, rssMB())
		if tr.enabled() {
			runtime.ReadMemStats(&m1)
			ph.perJob = append(ph.perJob, jobRecord{j: j, layer: out.layer, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6})
		}
		ph.attempted++
		ph.latMs = append(ph.latMs, float64(dt.Nanoseconds())/1e6)
		ph.cpuMs = append(ph.cpuMs, dc)
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = err
			}
		} else {
			ph.units += out.units
		}
		ph.bits = append(ph.bits, out.bits)
		ph.worstBits = append(ph.worstBits, out.worstBits)
	}
	ph.wallS, ph.cpuS = time.Since(start).Seconds(), (cpuMs()-cpuStart)/1e3
	return ph
}

// measure sets the workload up repeatedly, warms it up, and runs
// the measured phase: untraced for the end-to-end metrics, or traced
// for the per-layer ones.
func measure(o options, tamper func(bench)) (*result, error) {
	wl := workloads[o.workload]
	tr := newTracer()
	res := &result{
		Metrics: make(map[string]metricValue),
		samples: make(map[string]int),
		context: runContext{
			Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
			Env: hostbench.CurrentEnvironment(), Nproc: runtime.NumCPU(),
			Warmup: o.warmup, Workers: o.workers, HostProcs: 1, Unit: wl.unit,
		},
	}
	var b bench
	var setupS, setupCPUS []float64
	for total := 0.0; len(setupS) < o.setupReps || total < o.setupS; {
		b = nil
		runtime.GC() // the previous set-up's state is garbage; do not bill it to this one
		start, c0 := time.Now(), cpuMs()
		var err error
		if b, err = wl.setup(o, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		setupCPUS = append(setupCPUS, (cpuMs()-c0)/1e3)
		total += setupS[len(setupS)-1]
	}
	res.context.SetupReps = len(setupS)
	if tamper != nil {
		tamper(b)
	}
	var warm phase // warm-up jobs are checked but not timed
	for j := 0; j < o.warmup; j++ {
		warm.add(loop(b, tr, j, 0))
	}
	runtime.GC() // the set-ups' garbage is not the measured phase's

	if !o.trace {
		steal0, ticks0 := stealTicks()
		ph := loop(b, tr, o.warmup, o.seconds)
		steal1, ticks1 := stealTicks()
		res.Attempted, res.Failed = warm.attempted+ph.attempted, warm.failed+ph.failed
		res.firstErr = firstNonNil(warm.firstErr, ph.firstErr)
		n := len(ph.latMs)
		// The gated times are process CPU times, every thread's: on a
		// shared VM the hypervisor takes a varying share of the wall
		// clock (steal), which CPU time leaves out. Wall-clock figures
		// are reported alongside.
		res.set("setup_s", "s", median(setupCPUS), len(setupCPUS))
		res.set("job_cpu_ms", "ms", median(ph.cpuMs), n)
		// Closed loop, one client: work per CPU second of the phase,
		// GC and the benchmark's own input generation included.
		res.set("throughput_per_cpu_s", "1/s", ph.units/ph.cpuS, n)
		// The median over jobs: where in its GC cycle a job ends, and
		// so the high-water mark, moves with the host's timing.
		res.set("rss_mb", "MB", median(ph.rssMB), n)
		// The median job: the worst job depends on how many jobs the
		// host's speed let the run complete. Every job's worst slot is
		// held to its workload's floor by its own check.
		res.set("precision_bits", "bits", median(ph.bits), n)
		res.note("setup_wall_s %.6g s (n=%d)", median(setupS), len(setupS))
		res.note("job_p50_ms %.6g ms, job_p90_ms %.6g ms (wall clock, n=%d)", quantile(ph.latMs, 0.5), quantile(ph.latMs, 0.9), n)
		res.note("throughput_per_s %.6g %s per wall-clock second", ph.units/ph.wallS, wl.unit)
		res.note("peak_rss_mb %.6g MB", peakRSSMB())
		res.note("worst slot precision %.4g bits", quantile(ph.worstBits, 0))
		if ticks1 > ticks0 {
			res.note("host steal %.1f%% of CPU time during the measured phase", 100*float64(steal1-steal0)/float64(ticks1-ticks0))
		}
	} else {
		// Each job runs twice, untraced then traced, so drift in the
		// host's speed cancels out of the tracing overhead, and the
		// traced rerun must reproduce the untraced job's checks. Each
		// traced job is priced with the latest probe.
		var plain, traced phase
		var probes []map[string]float64
		start := time.Now()
		for j := o.warmup; j == o.warmup || time.Since(start).Seconds() < o.seconds; j++ {
			if (j-o.warmup)%probeEvery == 0 {
				tr.on, tr.job = true, -1
				probe, err := b.probe()
				tr.on = false
				if err != nil {
					return nil, err
				}
				probes = append(probes, probe)
			}
			plain.add(loop(b, tr, j, 0))
			tr.on = true
			ph := loop(b, tr, j, 0)
			tr.on = false
			ph.perJob[0].probe = probes[len(probes)-1]
			traced.add(ph)
		}
		if err := tr.write(o.traceOut); err != nil {
			return nil, err
		}
		res.Attempted = warm.attempted + plain.attempted + traced.attempted
		res.Failed = warm.failed + plain.failed + traced.failed
		res.firstErr = firstNonNil(warm.firstErr, plain.firstErr, traced.firstErr)
		res.layers(tr, traced, probes)
		res.set("trace_overhead_frac", "ratio", quantile(traced.latMs, 0.5)/quantile(plain.latMs, 0.5)-1, len(traced.latMs))
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
	r.samples[name] = n
}

// layers fills every per-layer metric from the traced phase: span
// times and counts per job, the job-reported layer values, and the
// probes' costs, each the median over the traced jobs (the probes).
// Layers a workload does not reach read 0.
func (r *result) layers(tr *tracer, ph phase, probes []map[string]float64) {
	byJob := tr.perJob()
	n := len(ph.perJob)
	perJob := func(f func(rec jobRecord, spans map[string]*layerStats) float64) float64 {
		vs := make([]float64, 0, n)
		for _, rec := range ph.perJob {
			vs = append(vs, f(rec, byJob[rec.j]))
		}
		return median(vs)
	}
	spanMs := func(spans map[string]*layerStats, name string) float64 {
		if st := spans[name]; st != nil {
			return st.ms
		}
		return 0
	}
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0, n)
	}
	for _, op := range ckksOps {
		name := "ckks." + op
		r.set(name+".ms", "ms", perJob(func(_ jobRecord, s map[string]*layerStats) float64 { return spanMs(s, name) }), n)
		r.set(name+".calls", "count", perJob(func(_ jobRecord, s map[string]*layerStats) float64 {
			if st := s[name]; st != nil {
				return float64(st.calls)
			}
			return 0
		}), n)
	}
	for name := range probes[0] {
		vs := make([]float64, len(probes))
		for i, p := range probes {
			vs[i] = p[name]
		}
		r.set(name, r.Metrics[name].Unit, median(vs), len(probes))
	}
	layerNames := map[string]bool{}
	for _, rec := range ph.perJob {
		for name := range rec.layer {
			layerNames[name] = true
		}
	}
	for name := range layerNames {
		r.set(name, r.Metrics[name].Unit, perJob(func(rec jobRecord, _ map[string]*layerStats) float64 { return rec.layer[name] }), n)
	}
	// Kernel reconstruction: Σ count × unit cost against the server's
	// measured operator time; the residual is glue.
	serverMs := func(s map[string]*layerStats) float64 {
		var t float64
		for _, op := range serverOps {
			t += spanMs(s, "ckks."+op)
		}
		return t
	}
	kernelMs := func(rec jobRecord) float64 {
		var t float64
		for count, cost := range kernelCosts {
			t += rec.layer[count] * rec.probe[cost] / 1e3
		}
		return t
	}
	if _, host := probes[0]["ring.ntt_us"]; host {
		r.set("ckks.server_ms", "ms", perJob(func(_ jobRecord, s map[string]*layerStats) float64 { return serverMs(s) }), n)
		r.set("ckks.kernel_sum_ms", "ms", perJob(func(rec jobRecord, _ map[string]*layerStats) float64 { return kernelMs(rec) }), n)
		r.set("ckks.glue_ms", "ms", perJob(func(rec jobRecord, s map[string]*layerStats) float64 { return serverMs(s) - kernelMs(rec) }), n)
		r.set("ckks.glue_frac", "ratio", perJob(func(rec jobRecord, s map[string]*layerStats) float64 {
			return (serverMs(s) - kernelMs(rec)) / serverMs(s)
		}), n)
		r.set("ckks.alloc_mb", "MB", perJob(func(rec jobRecord, _ map[string]*layerStats) float64 { return rec.allocMB }), n)
	} else {
		r.set("sweep.run_ms", "ms", perJob(func(_ jobRecord, s map[string]*layerStats) float64 { return spanMs(s, "sweep.run") }), n)
		r.set("serve.run_ms", "ms", perJob(func(_ jobRecord, s map[string]*layerStats) float64 { return spanMs(s, "serve.run") }), n)
		r.set("serve.sim_req_per_s", "1/s", perJob(func(rec jobRecord, s map[string]*layerStats) float64 {
			return rec.layer["serve.requests"] / (spanMs(s, "serve.run") / 1e3)
		}), n)
	}
	r.set("workload.self_ms", "ms", perJob(func(_ jobRecord, s map[string]*layerStats) float64 {
		if st := s["job"]; st != nil {
			return st.selfMs
		}
		return 0
	}), n)
}

func firstNonNil(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rssMB is the process's resident set size now, or 0 where
// /proc/self/statm cannot be read.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / 1e6
}

// cpuMs is the process's CPU time so far, user and system, every
// thread, in ms.
func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

// stealTicks returns the machine's CPU time stolen by the hypervisor
// and its total CPU time, in clock ticks, from /proc/stat; zeros where
// it cannot be read.
func stealTicks() (steal, total int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's high-water resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
