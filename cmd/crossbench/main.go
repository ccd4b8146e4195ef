// Command crossbench regenerates the paper's evaluation section: every
// table and figure of §V, with paper-reported values printed next to
// the reproduction's measurements. It is also the repo's perf oracle:
// -sweep lowers the full {param set × device × core count × workload}
// cross-product — every registered device, TPU generations and GPU
// parts alike — in parallel, and -compare diffs a fresh sweep against a
// committed baseline, exiting non-zero on regression (the CI gate).
// -versus prices named targets ("TPUv6e-16,H100-8") head-to-head on
// every workload: the cross-hardware comparison.
//
// Usage:
//
//	crossbench                 # run everything (paper order)
//	crossbench -list           # list experiment identifiers
//	crossbench -experiment id  # run one experiment ("Table V", "fig11b", …)
//	crossbench -scaling        # core-count scaling sweep (1/2/4/8 cores)
//	crossbench -scaling -device TPUv5p        # any registered device (TPU or GPU)
//	crossbench -versus TPUv6e-16,H100-8 -set D        # cross-hardware head-to-head
//	crossbench -versus TPUv6e-16,H100-8 -set D -json  # machine-readable comparison
//	crossbench -versus A100-80GB-8,H100-8 -out versus.json
//	crossbench -sweep -parallel 8 -json       # full sweep, machine-readable
//	crossbench -compare BENCH_baseline.json   # fresh sweep vs baseline (total_s and overlapped_s); exit 1 on regression
//	crossbench -compare BENCH_baseline.json -threshold 0.01
//	crossbench -compare BENCH_baseline.json -out sweep.json  # keep the fresh sweep too
//	crossbench -hostbench                     # measure host kernels (real ns/op + allocs/op)
//	crossbench -hostbench -compare BENCH_host.json -threshold 0.25  # wall-clock gate
//	crossbench -hostbench -compare BENCH_host.json -out hostbench.json
//	crossbench -calib                         # calibration: fit the model's free constants to ground truth
//	crossbench -calib -compare BENCH_calib.json -threshold 0.10     # model-drift gate
//	crossbench -calib -compare BENCH_calib.json -out calib.json
//	crossbench -calib -repeats 9 -parallel 8  # more timing samples, wider fitter pool
//	crossbench -refresh-baselines             # rewrite BENCH_baseline/BENCH_host/BENCH_calib .json in one run
//	crossbench -serve                         # serving simulator: 4-pod fleet at 70% capacity
//	crossbench -serve -rate 2000 -pods 8 -policy jsq -json
//	crossbench -serve -device TPUv4 -set A -batch 8 -delay 0.001 -horizon 0.5
//	crossbench -serve -mix "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" -seed 42
//	crossbench -serve -overlap                # price batches at the overlap-aware makespan
//	crossbench -serve -faults -mtbf 0.05 -retries 3 -hedge   # fault injection + recovery
//	crossbench -serve -faults -deadline 0.02 -shed 32        # deadlines + load shedding
//	crossbench -serve -faults -straggler 8 -fault-seed 9     # transient stragglers
//	crossbench -serve -fleet "TPUv6e:1:4+H100:1:2"           # heterogeneous fleet + cost section
//	crossbench -serve -fleet "TPUv6e:1:4+H100:1:2" -policy cheapest
//	crossbench -serve -trace arrivals.csv     # replay a recorded arrival trace
//	crossbench -serve -stats streaming -rate 50000 -horizon 30  # O(1)-memory latency stats; arrivals still O(requests)
//	crossbench -serve -classes "interactive:10:0.02,batch:0" -mix "HE-Mult=0.6@interactive,MNIST=0.4@batch"
//	crossbench -chaos                         # goodput vs crash-MTBF grid (availability curve)
//	crossbench -chaos -retries 3 -hedge -deadline 0.05 -json
//	crossbench -plan -slo 0.02                # capacity plan: req/s/$ ladder of the base device
//	crossbench -plan -slo 0.02 -fleets "TPUv6e:1:4,TPUv6e:1:2+H100:1:1"
//	crossbench -json [...]     # machine-readable output (any mode)
//
// With -json the tool emits JSON instead of the formatted tables:
// -list prints a string array of identifiers; -sweep prints the sweep
// records (deterministic and stably ordered — bit-identical at every
// -parallel value, so the output is committable as a baseline);
// every -compare prints the gate verdict; every other mode prints Report
// objects ({"ID","Title","Body","Notes"}).
//
// Run with: go run ./cmd/crossbench [flags]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"cross"
	"cross/internal/harness"
)

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
}

// readBaseline loads a committed baseline (BENCH_baseline.json,
// BENCH_host.json or BENCH_calib.json) and rejects one with no
// records, which would otherwise gate nothing and pass.
func readBaseline[T any](path string, records func(T) int) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("parse %s: %w", path, err)
	}
	if records(v) == 0 {
		return v, fmt.Errorf("%s holds no records", path)
	}
	return v, nil
}

// finishGate prints a gate verdict (or emits it as JSON) and exits 1
// when the gate failed — the one exit path of every -compare mode.
func finishGate(r cross.GateResult, asJSON bool) {
	if asJSON {
		emitJSON(r)
	} else {
		fmt.Print(r.Summary())
	}
	if r.Failed() {
		os.Exit(1)
	}
}

// runHostBench handles -hostbench (optionally with -compare/-out):
// measure the host kernels, write/print the records, and when a
// baseline is given diff against it, exiting 1 on regression.
func runHostBench(compare string, threshold float64, out string, asJSON bool) {
	file, err := cross.HostBenchRunFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeJSON(out, file); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
	}
	if compare == "" {
		if asJSON {
			emitJSON(file)
			return
		}
		for _, r := range file.Records {
			fmt.Printf("%-28s %12.0f ns/op %8.3g allocs/op\n", r.ID, r.NsPerOp, r.AllocsPerOp)
		}
		return
	}
	baseline, err := readBaseline(compare, func(f cross.HostBenchFile) int { return len(f.Records) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	finishGate(cross.HostBenchGate(baseline, file, threshold), asJSON)
}

// runCalib handles -calib (optionally with -compare/-out): run the
// calibration harness, write/print the report, and when a baseline is
// given diff against it, exiting 1 on model drift.
func runCalib(compare string, threshold float64, cfg cross.CalibConfig, out string, asJSON bool) {
	rep, err := cross.Calib(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
	}
	if compare == "" {
		if asJSON {
			emitJSON(rep)
			return
		}
		fmt.Print(rep.Summary())
		return
	}
	baseline, err := readBaseline(compare, func(r cross.CalibReport) int { return len(r.Records) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	finishGate(cross.CalibGate(&baseline, rep, threshold), asJSON)
}

// runRefreshBaselines rewrites all three committed baselines from one
// fresh run — the single documented workflow for intentional model or
// hardware changes (DESIGN.md §15).
func runRefreshBaselines(parallel, repeats int) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	recs, err := cross.Sweep(cross.SweepConfig{Parallel: parallel})
	if err != nil {
		fail(err)
	}
	if err := writeJSON("BENCH_baseline.json", recs); err != nil {
		fail(err)
	}
	fmt.Printf("BENCH_baseline.json  %d sweep record(s)\n", len(recs))

	file, err := cross.HostBenchRunFile()
	if err != nil {
		fail(err)
	}
	if err := writeJSON("BENCH_host.json", file); err != nil {
		fail(err)
	}
	fmt.Printf("BENCH_host.json      %d host record(s), %s\n", len(file.Records), file.Env.CPUModel)

	rep, err := cross.Calib(cross.CalibConfig{Repeats: repeats, Parallel: fitWorkers(parallel)})
	if err != nil {
		fail(err)
	}
	if err := writeJSON("BENCH_calib.json", rep); err != nil {
		fail(err)
	}
	fmt.Printf("BENCH_calib.json     %d calibration record(s)\n", len(rep.Records))
	fmt.Print(rep.Summary())
}

// fitWorkers maps the -parallel convention (0 = NumCPU) onto the
// calibration fitter's worker count.
func fitWorkers(parallel int) int {
	if parallel == 0 {
		return runtime.NumCPU()
	}
	return parallel
}

// parseMix parses "-mix HE-Mult=0.6,Rotate=0.3,MNIST=0.1" into the
// serve mix schema. A weight may carry an SLO-class binding after
// "@": "HE-Mult=0.6@interactive" (the class must appear in -classes).
func parseMix(s string) ([]cross.ServeMixEntry, error) {
	var mix []cross.ServeMixEntry
	for _, part := range strings.Split(s, ",") {
		wl, weight, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not workload=weight", part)
		}
		weight, class, _ := strings.Cut(weight, "@")
		w, err := strconv.ParseFloat(weight, 64)
		if err != nil {
			return nil, fmt.Errorf("mix entry %q: %w", part, err)
		}
		mix = append(mix, cross.ServeMixEntry{Workload: wl, Weight: w, Class: class})
	}
	return mix, nil
}

// parseClasses parses "-classes name:priority[:deadline_s[:queue_limit]]"
// entries, comma-separated: "interactive:10:0.02,batch:0".
func parseClasses(s string) ([]cross.ServeSLOClass, error) {
	var classes []cross.ServeSLOClass
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("class %q is not name:priority[:deadline_s[:queue_limit]]", part)
		}
		c := cross.ServeSLOClass{Name: fields[0]}
		var err error
		if c.Priority, err = strconv.Atoi(fields[1]); err != nil {
			return nil, fmt.Errorf("class %q priority: %w", part, err)
		}
		if len(fields) >= 3 {
			if c.DeadlineS, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("class %q deadline: %w", part, err)
			}
		}
		if len(fields) == 4 {
			if c.QueueLimit, err = strconv.Atoi(fields[3]); err != nil {
				return nil, fmt.Errorf("class %q queue limit: %w", part, err)
			}
		}
		classes = append(classes, c)
	}
	return classes, nil
}

// writeJSON writes any record to path with the stdout JSON encoding.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runServe handles -serve: execute one serving scenario and emit its
// record.
func runServe(cfg cross.ServeConfig, out string, asJSON bool) {
	r, err := cross.Serve(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeJSON(out, r); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
	}
	if asJSON {
		emitJSON(r)
		return
	}
	fmt.Print(r.Summary())
}

// runChaos handles -chaos: sweep the serving scenario across the
// default crash-MTBF grid and emit the availability curve. The chaos
// cells reuse the serve fault flags for recovery knobs; the MTBF axis
// itself comes from the grid (any -mtbf value seeds the base config's
// other defaults but is overridden per cell).
func runChaos(cc cross.ServeChaosConfig, out string, asJSON bool) {
	r, err := cross.ServeChaos(cc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeJSON(out, r); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
	}
	if asJSON {
		emitJSON(r)
		return
	}
	fmt.Print(r.Summary())
}

// runPlan handles -plan: sweep the candidate fleets for the highest
// rate meeting the p99 target and emit the req/s/$ frontier.
func runPlan(pc cross.ServePlanConfig, out string, asJSON bool) {
	r, err := cross.ServePlan(pc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crossbench:", err)
		os.Exit(1)
	}
	if out != "" {
		if err := writeJSON(out, r); err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
	}
	if asJSON {
		emitJSON(r)
		return
	}
	fmt.Print(r.Summary())
}

func main() {
	list := flag.Bool("list", false, "list experiment identifiers and exit")
	experiment := flag.String("experiment", "", "run a single experiment by identifier")
	scaling := flag.Bool("scaling", false, "run only the core-count scaling sweep")
	device := flag.String("device", "TPUv6e", "device for -scaling and -serve ("+cross.TargetNames()+")")
	versus := flag.String("versus", "", `cross-hardware comparison: comma-separated targets ("TPUv6e-16,H100-8"), priced on every workload`)
	sweepMode := flag.Bool("sweep", false, "run the full cross-product perf sweep")
	hostbenchMode := flag.Bool("hostbench", false, "measure host kernels (real ns/op + allocs/op); with -compare, diff against a BENCH_host.json baseline")
	calibMode := flag.Bool("calib", false, "run the calibration harness: measure ground truth, fit the model's free constants, report per-kernel model error; with -compare, gate model drift against a BENCH_calib.json baseline")
	repeats := flag.Int("repeats", 0, "calib: raw timing samples per host measurement point (default 5)")
	refreshBaselines := flag.Bool("refresh-baselines", false, "rewrite all three committed baselines (BENCH_baseline.json, BENCH_host.json, BENCH_calib.json) from one fresh run")
	serveMode := flag.Bool("serve", false, "run the discrete-event serving simulator")
	planMode := flag.Bool("plan", false, `capacity planner: highest req/s meeting -slo per candidate fleet, ranked by req/s/$`)
	fleet := flag.String("fleet", "", `serve: heterogeneous fleet "device:cores:count[:dollar_hr]" groups joined by "+" (replaces -device/-pods/-cores)`)
	fleets := flag.String("fleets", "", `plan: comma-separated candidate fleet specs (default 1/2/4/8-pod ladder of -device)`)
	slo := flag.Float64("slo", 0, "plan: target p99 latency in seconds")
	classes := flag.String("classes", "", `serve: SLO classes "name:priority[:deadline_s[:queue_limit]]", comma-separated; bind mix entries with weight@class`)
	trace := flag.String("trace", "", "serve: replay arrivals from a JSON or CSV trace file instead of the Poisson source")
	stats := flag.String("stats", "", "serve: latency statistics mode — stored (exact, default) or streaming (O(1)-memory P² latency accumulators; every arrival is still held in memory, ~330 B/request)")
	rate := flag.Float64("rate", 0, "serve: offered load in requests/s (0 = 70% of fleet capacity)")
	pods := flag.Int("pods", 0, "serve: fleet size in pods (default 4)")
	podCores := flag.Int("cores", 0, "serve: cores per pod (default 1)")
	policy := flag.String("policy", "", "serve: dispatch policy (round-robin, least-loaded, jsq, cheapest)")
	seed := flag.Int64("seed", 0, "serve: arrival PRNG seed (default 1)")
	horizon := flag.Float64("horizon", 0, "serve: arrival window in simulated seconds (default 0.25)")
	batch := flag.Int("batch", 0, "serve: max batch size per launch (default 8; 1 disables batching)")
	delay := flag.Float64("delay", 0, "serve: max queue delay in seconds an idle pod holds a non-full batch (default 0)")
	mix := flag.String("mix", "", `serve: workload mix as "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" (default mixed operator+MNIST traffic)`)
	set := flag.String("set", "", `parameter-set letter A-D for -serve (default "B") and -versus (default "D")`)
	overlap := flag.Bool("overlap", false, "serve: price service times at the overlap-aware OverlappedTotal instead of the serial total")
	faultsMode := flag.Bool("faults", false, "serve: enable the deterministic fault model and recovery machinery (DESIGN.md §16)")
	chaosMode := flag.Bool("chaos", false, "chaos sweep: rerun the serving scenario across a crash-MTBF grid and report the availability curve")
	faultSeed := flag.Int64("fault-seed", 0, "faults: injector PRNG seed, independent of -seed (default 1)")
	mtbf := flag.Float64("mtbf", 0, "faults: per-pod mean time between crashes in seconds (0 = no crashes)")
	mttr := flag.Float64("mttr", 0, "faults: per-pod mean time to recover in seconds (default mtbf/10)")
	straggler := flag.Float64("straggler", 0, "faults: transient-straggler slowdown factor ≥ 1 (0 = off)")
	batcherr := flag.Float64("batcherr", 0, "faults: i.i.d. probability that a batch launch fails transiently")
	deadline := flag.Float64("deadline", 0, "faults: per-request deadline in seconds; timed-out requests never count completed (0 = none)")
	retries := flag.Int("retries", 0, "faults: max re-dispatches for a request lost to a crash or batch error")
	hedge := flag.Bool("hedge", false, "faults: hedged dispatch — copy a slow batch to an idle pod, first finisher wins")
	shed := flag.Int("shed", 0, "faults: shed arrivals when the dispatched pod already queues this many requests (0 = unbounded)")
	compare := flag.String("compare", "", "run a fresh sweep (or host benchmark with -hostbench, calibration with -calib) and gate it against a baseline JSON file; exit 1 on regression")
	parallel := flag.Int("parallel", 0, "sweep worker count (0 = NumCPU); output is identical at every value")
	threshold := flag.Float64("threshold", 0.005, "fractional regression threshold for -compare (0.005 = 0.5%; -hostbench defaults to 0.25, -calib to 0.10)")
	out := flag.String("out", "", "also write the fresh records JSON to this file (-sweep, -hostbench or -compare); lets CI keep the artifact without running the measurement twice")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables")
	flag.Parse()

	deviceSet, thresholdSet, parallelSet, outSet, setSet, repeatsSet := false, false, false, false, false, false
	serveFlagSet, faultFlagSet := "", ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "device":
			deviceSet = true
		case "threshold":
			thresholdSet = true
		case "parallel":
			parallelSet = true
		case "out":
			outSet = true
		case "set":
			setSet = true
		case "repeats":
			repeatsSet = true
		case "rate", "pods", "cores", "policy", "seed", "horizon", "batch", "delay", "mix", "overlap", "classes":
			serveFlagSet = f.Name
		case "fault-seed", "mtbf", "mttr", "straggler", "batcherr", "deadline", "retries", "hedge", "shed":
			faultFlagSet = f.Name
		}
	})
	// -hostbench and -calib pair with -compare (their respective gates);
	// every other top-level mode is mutually exclusive.
	exclusive := 0
	for _, on := range []bool{*scaling, *sweepMode, *hostbenchMode, *calibMode, *refreshBaselines, *serveMode, *chaosMode, *planMode,
		*compare != "" && !*hostbenchMode && !*calibMode, *list, *experiment != "", *versus != ""} {
		if on {
			exclusive++
		}
	}
	if exclusive > 1 {
		fmt.Fprintln(os.Stderr, "crossbench: -scaling, -sweep, -hostbench, -calib, -refresh-baselines, -serve, -chaos, -plan, -compare, -versus, -list and -experiment are mutually exclusive (except -hostbench/-calib with -compare)")
		os.Exit(1)
	}
	if deviceSet && !*scaling && !*serveMode && !*chaosMode && !*planMode {
		fmt.Fprintln(os.Stderr, "crossbench: -device only applies to -scaling, -serve, -chaos and -plan")
		os.Exit(1)
	}
	if setSet && !*serveMode && !*chaosMode && !*planMode && *versus == "" {
		fmt.Fprintln(os.Stderr, "crossbench: -set only applies to -serve, -chaos, -plan and -versus")
		os.Exit(1)
	}
	if thresholdSet && *compare == "" {
		fmt.Fprintln(os.Stderr, "crossbench: -threshold only applies to -compare")
		os.Exit(1)
	}
	if parallelSet && (*hostbenchMode || (!*sweepMode && !*serveMode && !*chaosMode && !*planMode && !*calibMode && !*refreshBaselines && *compare == "")) {
		fmt.Fprintln(os.Stderr, "crossbench: -parallel only applies to -sweep, -serve, -chaos, -plan, -calib, -refresh-baselines and sweep -compare")
		os.Exit(1)
	}
	if outSet && !*sweepMode && !*hostbenchMode && !*calibMode && !*serveMode && !*chaosMode && !*planMode && *compare == "" && *versus == "" {
		fmt.Fprintln(os.Stderr, "crossbench: -out only applies to -sweep, -hostbench, -calib, -serve, -chaos, -plan, -compare and -versus")
		os.Exit(1)
	}
	if repeatsSet && !*calibMode && !*refreshBaselines {
		fmt.Fprintln(os.Stderr, "crossbench: -repeats only applies to -calib and -refresh-baselines")
		os.Exit(1)
	}
	if serveFlagSet != "" && !*serveMode && !*chaosMode && !*planMode {
		fmt.Fprintf(os.Stderr, "crossbench: -%s only applies to -serve, -chaos and -plan\n", serveFlagSet)
		os.Exit(1)
	}
	if *fleet != "" && !*serveMode && !*chaosMode {
		fmt.Fprintln(os.Stderr, "crossbench: -fleet only applies to -serve and -chaos (-plan takes -fleets)")
		os.Exit(1)
	}
	if *trace != "" && !*serveMode {
		fmt.Fprintln(os.Stderr, "crossbench: -trace only applies to -serve")
		os.Exit(1)
	}
	if *stats != "" && !*serveMode {
		fmt.Fprintln(os.Stderr, "crossbench: -stats only applies to -serve")
		os.Exit(1)
	}
	if (*fleets != "" || *slo != 0) && !*planMode {
		fmt.Fprintln(os.Stderr, "crossbench: -fleets and -slo only apply to -plan")
		os.Exit(1)
	}
	if *faultsMode && !*serveMode {
		fmt.Fprintln(os.Stderr, "crossbench: -faults only applies to -serve (-chaos implies it)")
		os.Exit(1)
	}
	if faultFlagSet != "" && !*faultsMode && !*chaosMode {
		fmt.Fprintf(os.Stderr, "crossbench: -%s only applies to -serve -faults and -chaos\n", faultFlagSet)
		os.Exit(1)
	}

	if *serveMode || *chaosMode || *planMode {
		cfg := cross.ServeConfig{
			Seed: *seed, Set: *set, Pods: *pods, CoresPerPod: *podCores,
			Policy: *policy, Rate: *rate, HorizonS: *horizon,
			MaxBatch: *batch, MaxDelayS: *delay, Overlap: *overlap, Parallel: *parallel,
			TracePath: *trace, Stats: *stats,
		}
		if deviceSet {
			cfg.Spec = *device
		}
		if *fleet != "" {
			f, err := cross.ServeParseFleet(*fleet)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
			cfg.Fleet = f
			cfg.Spec, cfg.Pods, cfg.CoresPerPod = "", 0, 0
		}
		if *mix != "" {
			m, err := parseMix(*mix)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
			cfg.Mix = m
		}
		if *classes != "" {
			cs, err := parseClasses(*classes)
			if err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
			cfg.Classes = cs
		}
		if *planMode {
			pc := cross.ServePlanConfig{Base: cfg, TargetP99S: *slo}
			if *fleets != "" {
				fs, err := cross.ServeParseFleets(*fleets)
				if err != nil {
					fmt.Fprintln(os.Stderr, "crossbench:", err)
					os.Exit(1)
				}
				pc.Fleets = fs
			}
			runPlan(pc, *out, *asJSON)
			return
		}
		if *faultsMode || *chaosMode {
			cfg.Faults = &cross.FaultConfig{
				Seed: *faultSeed, MTBFS: *mtbf, MTTRS: *mttr,
				StragglerFactor: *straggler, BatchErrorProb: *batcherr,
				DeadlineS: *deadline, MaxRetries: *retries,
				Hedge: *hedge, QueueLimit: *shed,
			}
		}
		if *chaosMode {
			runChaos(cross.ServeChaosConfig{Serve: cfg}, *out, *asJSON)
		} else {
			runServe(cfg, *out, *asJSON)
		}
		return
	}

	if *hostbenchMode {
		th := *threshold
		if !thresholdSet {
			th = 0.25 // generous: shared CI runners are noisy
		}
		runHostBench(*compare, th, *out, *asJSON)
		return
	}

	if *calibMode {
		th := *threshold
		if !thresholdSet {
			th = 0.10 // published-source drift is deterministic; 10% absolute model-error growth gates
		}
		cfg := cross.CalibConfig{Repeats: *repeats, Parallel: fitWorkers(*parallel)}
		runCalib(*compare, th, cfg, *out, *asJSON)
		return
	}

	if *refreshBaselines {
		runRefreshBaselines(*parallel, *repeats)
		return
	}

	if *sweepMode {
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: *parallel})
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := writeJSON(*out, recs); err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
		}
		if *asJSON {
			emitJSON(recs)
			return
		}
		for _, r := range recs {
			fmt.Printf("%-32s %12.4g s  (overlapped %.4g s, collective %.4g s, %d kernel launches)\n",
				r.ID, r.TotalS, r.OverlappedS, r.CollectiveS, r.Kernels.Total())
		}
		return
	}

	if *compare != "" {
		baseline, err := readBaseline(*compare, func(r []cross.SweepRecord) int { return len(r) })
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: *parallel})
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := writeJSON(*out, recs); err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
		}
		finishGate(cross.SweepGate(baseline, recs, *threshold), *asJSON)
		return
	}

	if *versus != "" {
		targets := strings.Split(*versus, ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		vset := *set
		if vset == "" {
			vset = "D"
		}
		v, err := harness.Versus(targets, vset)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := writeJSON(*out, v); err != nil {
				fmt.Fprintln(os.Stderr, "crossbench:", err)
				os.Exit(1)
			}
		}
		if *asJSON {
			emitJSON(v)
			return
		}
		fmt.Println(v.Report().String())
		return
	}

	if *scaling {
		r, err := harness.CoreScalingOn(*device)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crossbench:", err)
			os.Exit(1)
		}
		if *asJSON {
			emitJSON(r)
			return
		}
		fmt.Println(r.String())
		return
	}

	if *list {
		ids := cross.ExperimentIDs()
		if *asJSON {
			emitJSON(ids)
			return
		}
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}

	if *experiment != "" {
		exp, err := cross.ExperimentByID(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *asJSON {
			emitJSON(exp)
			return
		}
		fmt.Println(exp.String())
		return
	}

	all := cross.AllExperiments()
	if *asJSON {
		emitJSON(all)
		return
	}
	fmt.Println("CROSS reproduction — regenerating the paper's evaluation (§V)")
	fmt.Println("simulated TPU latencies are model estimates; compare shapes, not absolutes")
	fmt.Println()
	for _, exp := range all {
		fmt.Println(exp.String())
	}
}
