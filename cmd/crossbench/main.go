// Command crossbench regenerates the paper's evaluation section: every
// table and figure of §V, with paper-reported values printed next to
// the reproduction's measurements. It is also the repo's perf oracle
// and serving simulator. Each job is a subcommand with its own flags:
//
//	crossbench                          # run everything (paper order); same as "crossbench eval"
//	crossbench eval -list               # list experiment identifiers
//	crossbench eval -experiment id      # run one experiment ("Table V", "fig11b", …)
//	crossbench scaling                  # core-count scaling sweep (1/2/4/8 cores)
//	crossbench scaling -device TPUv5p   # any registered device (TPU or GPU)
//	crossbench versus TPUv6e-16,H100-8 -set D -json    # cross-hardware head-to-head
//	crossbench versus A100-80GB-8,H100-8 -out versus.json
//	crossbench sweep -parallel 8 -json  # full sweep, machine-readable
//	crossbench sweep -compare BENCH_baseline.json      # fresh sweep vs baseline (total_s and overlapped_s); exit 1 on regression
//	crossbench sweep -compare BENCH_baseline.json -threshold 0.01 -out sweep.json
//	crossbench hostbench                # measure host kernels (real ns/op + allocs/op)
//	crossbench hostbench -compare BENCH_host.json -out hostbench.json  # wall-clock gate (threshold 0.25)
//	crossbench calib                    # fit the model's free constants to ground truth
//	crossbench calib -compare BENCH_calib.json -out calib.json         # model-drift gate (threshold 0.10)
//	crossbench calib -repeats 9 -parallel 8            # more timing samples, wider fitter pool
//	crossbench refresh-baselines        # rewrite BENCH_baseline/BENCH_host/BENCH_calib .json in one run
//	crossbench serve                    # serving simulator: 4-pod fleet at 70% capacity
//	crossbench serve -rate 2000 -pods 8 -policy jsq -json
//	crossbench serve -device TPUv4 -set A -batch 8 -delay 0.001 -horizon 0.5
//	crossbench serve -mix "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" -seed 42
//	crossbench serve -overlap           # price batches at the overlap-aware makespan
//	crossbench serve -faults -mtbf 0.05 -retries 3 -hedge   # fault injection + recovery
//	crossbench serve -faults -deadline 0.02 -shed 32        # deadlines + load shedding
//	crossbench serve -faults -straggler 8 -fault-seed 9     # transient stragglers
//	crossbench serve -fleet "TPUv6e:1:4+H100:1:2" -policy cheapest  # heterogeneous fleet + cost section
//	crossbench serve -trace arrivals.csv                    # replay a recorded arrival trace
//	crossbench serve -stats streaming -rate 50000 -horizon 30  # O(1)-memory latency stats; arrivals still O(requests)
//	crossbench serve -classes "interactive:10:0.02,batch:0" -mix "HE-Mult=0.6@interactive,MNIST=0.4@batch"
//	crossbench chaos -retries 3 -hedge -deadline 0.05 -json  # goodput vs crash-MTBF grid (availability curve)
//	crossbench plan -slo 0.02 -fleets "TPUv6e:1:4,TPUv6e:1:2+H100:1:1"  # capacity plan: req/s/$ frontier
//
// "crossbench <subcommand> -h" lists that subcommand's flags; a flag
// another subcommand owns is rejected by the flag parser (exit 2).
// Every subcommand but refresh-baselines takes -json, which emits JSON
// instead of the formatted text: eval -list prints a string array of
// identifiers; sweep prints the sweep records (deterministic and stably
// ordered — bit-identical at every -parallel value, so the output is
// committable as a baseline); every -compare prints the gate verdict;
// eval, scaling and versus print Report-shaped objects and serve, chaos
// and plan their records. Errors exit 1, as does a failed gate.
//
// Run with: go run ./cmd/crossbench [subcommand] [flags]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cross"
	"cross/internal/harness"
)

// command is one subcommand. setup registers its flags on the
// subcommand's own FlagSet and returns the body, which runs after
// parsing with the positional arguments (one when args names one).
type command struct {
	name, args, help string
	setup            func(fs *flag.FlagSet, o *output) func(pos []string) error
}

var commands = []command{
	{"eval", "", "regenerate the paper's evaluation (every table and figure of §V); the default", evalCmd},
	{"scaling", "", "core-count scaling sweep (1/2/4/8 cores) on one device", scalingCmd},
	{"versus", "<targets>", `price comma-separated targets ("TPUv6e-16,H100-8") head-to-head on every workload`, versusCmd},
	{"sweep", "", "full {set × device × cores × workload} model sweep; with -compare, the perf gate", sweepCmd},
	{"hostbench", "", "measure host kernels (real ns/op + allocs/op); with -compare, the wall-clock gate", hostbenchCmd},
	{"calib", "", "fit the model's free constants to ground truth; with -compare, the model-drift gate", calibCmd},
	{"refresh-baselines", "", "rewrite BENCH_baseline.json, BENCH_host.json and BENCH_calib.json from one fresh run", refreshCmd},
	{"serve", "", "discrete-event serving simulator", serveCmd},
	{"chaos", "", "rerun the serving scenario across a crash-MTBF grid: the availability curve", chaosCmd},
	{"plan", "", "capacity planner: highest req/s meeting -slo per candidate fleet, ranked by req/s/$", planCmd},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errRegressed is a failed gate: exit 1, the verdict already printed.
var errRegressed = errors.New("gate failed")

// usageError is a bad invocation the flag parser cannot see: exit 2
// with the subcommand's usage.
type usageError string

func (e usageError) Error() string { return string(e) }

// run executes one crossbench invocation and returns its exit code: 0
// on success, 1 on an error or a failed gate, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	name := "eval"
	if len(args) > 0 {
		name, args = args[0], args[1:]
	}
	var c *command
	for i := range commands {
		if commands[i].name == name {
			c = &commands[i]
		}
	}
	if c == nil {
		if name == "-h" || name == "-help" || name == "--help" {
			usage(stdout)
			return 0
		}
		fmt.Fprintf(stderr, "crossbench: unknown subcommand %q\n", name)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("crossbench "+c.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: crossbench %s [flags]\n\n%s\n\nflags:\n", strings.TrimSpace(c.name+" "+c.args), c.help)
		fs.PrintDefaults()
	}
	o := &output{w: stdout}
	body := c.setup(fs, o)
	pos, err := parse(fs, args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2 // the flag package has printed the error and usage
	}
	if want := len(strings.Fields(c.args)); len(pos) != want {
		err = usageError(fmt.Sprintf("%s takes %d argument(s), got %d", c.name, want, len(pos)))
	} else {
		err = body(pos)
	}
	var ue usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		fmt.Fprintln(stderr, "crossbench:", err)
		fs.Usage()
		return 2
	case !errors.Is(err, errRegressed):
		fmt.Fprintln(stderr, "crossbench:", err)
	}
	return 1
}

// usage lists the subcommands.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: crossbench [subcommand] [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-18s %s\n", c.name, c.help)
	}
	fmt.Fprintln(w, "\nRun \"crossbench <subcommand> -h\" for its flags.")
}

// parse parses flags that may come before, between or after the
// positional arguments ("versus TPUv6e-16,H100-8 -set D"), which it
// returns.
func parse(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			return pos, nil
		}
		pos, args = append(pos, fs.Arg(0)), fs.Args()[1:]
	}
}

// output is where a subcommand's result goes: stdout as formatted text
// or, under -json, as indented JSON; -out also writes the fresh records
// to a file.
type output struct {
	w    io.Writer
	json bool
	out  string
}

// flags registers -json and, for subcommands with records to keep,
// -out.
func (o *output) flags(fs *flag.FlagSet, records bool) {
	fs.BoolVar(&o.json, "json", false, "emit machine-readable JSON instead of formatted text")
	if records {
		fs.StringVar(&o.out, "out", "", "also write the fresh records JSON to this file (lets CI keep the artifact without a second run)")
	}
}

// emit saves v to -out and prints it.
func (o *output) emit(v any, text func() string) error {
	if err := o.save(v); err != nil {
		return err
	}
	return o.print(v, text)
}

// save writes v to -out when it is set.
func (o *output) save(v any) error {
	if o.out == "" {
		return nil
	}
	return writeJSON(o.out, v)
}

// print writes v to stdout: as JSON under -json, else as text().
func (o *output) print(v any, text func() string) error {
	if o.json {
		return encodeJSON(o.w, v)
	}
	_, err := io.WriteString(o.w, text())
	return err
}

func encodeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// writeJSON writes v to path with the stdout JSON encoding.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encodeJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func evalCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, false)
	list := fs.Bool("list", false, "list experiment identifiers")
	id := fs.String("experiment", "", `run one experiment by identifier ("Table V", "fig11b", …; case- and space-insensitive)`)
	return func([]string) error {
		switch {
		case *list && *id != "":
			return usageError("-list and -experiment are mutually exclusive")
		case *list:
			ids := cross.ExperimentIDs()
			return o.print(ids, func() string { return strings.Join(ids, "\n") + "\n" })
		case *id != "":
			exp, err := cross.ExperimentByID(*id)
			if err != nil {
				return err
			}
			return o.print(exp, func() string { return exp.String() + "\n" })
		}
		all := cross.AllExperiments()
		return o.print(all, func() string {
			var b strings.Builder
			b.WriteString("CROSS reproduction — regenerating the paper's evaluation (§V)\n")
			b.WriteString("simulated TPU latencies are model estimates; compare shapes, not absolutes\n\n")
			for _, exp := range all {
				b.WriteString(exp.String() + "\n")
			}
			return b.String()
		})
	}
}

func scalingCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, false)
	device := fs.String("device", "TPUv6e", "device to scale ("+cross.TargetNames()+")")
	return func([]string) error {
		r, err := harness.CoreScalingOn(*device)
		if err != nil {
			return err
		}
		return o.print(r, func() string { return r.String() + "\n" })
	}
}

func versusCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	set := fs.String("set", "D", "parameter-set letter A-D")
	return func(pos []string) error {
		targets := strings.Split(pos[0], ",")
		for i := range targets {
			targets[i] = strings.TrimSpace(targets[i])
		}
		v, err := harness.Versus(targets, *set)
		if err != nil {
			return err
		}
		return o.emit(v, func() string { return v.Report().String() + "\n" })
	}
}

// gateFlags registers -compare and -threshold, the latter with the
// gate's own default.
func gateFlags(fs *flag.FlagSet, baseline string, threshold float64) (*string, *float64) {
	return fs.String("compare", "", "gate a fresh run against a baseline JSON file ("+baseline+"); exit 1 on regression"),
		fs.Float64("threshold", threshold, "regression threshold for -compare")
}

// gated is the body of sweep, hostbench and calib. Without -compare it
// emits the fresh records. With it, it reads the baseline first (a bad
// path fails before the run), saves the fresh records to -out, prints
// the gate verdict and returns errRegressed when the gate fails.
func gated[T any](o *output, compare string, fresh func() (T, error), records func(T) int,
	diff func(old, cur T) cross.GateResult, text func(T) string) error {
	var old T
	if compare != "" {
		var err error
		if old, err = readBaseline(compare, records); err != nil {
			return err
		}
	}
	cur, err := fresh()
	if err != nil {
		return err
	}
	if compare == "" {
		return o.emit(cur, func() string { return text(cur) })
	}
	if err := o.save(cur); err != nil {
		return err
	}
	r := diff(old, cur)
	if err := o.print(r, r.Summary); err != nil {
		return err
	}
	if r.Failed() {
		return errRegressed
	}
	return nil
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

func sweepCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	compare, threshold := gateFlags(fs, "BENCH_baseline.json", 0.005)
	parallel := fs.Int("parallel", 0, "worker count (0 = NumCPU); output is identical at every value")
	return func([]string) error {
		return gated(o, *compare,
			func() ([]cross.SweepRecord, error) { return cross.Sweep(cross.SweepConfig{Parallel: *parallel}) },
			func(r []cross.SweepRecord) int { return len(r) },
			func(old, cur []cross.SweepRecord) cross.GateResult { return cross.SweepGate(old, cur, *threshold) },
			func(recs []cross.SweepRecord) string {
				var b strings.Builder
				for _, r := range recs {
					fmt.Fprintf(&b, "%-32s %12.4g s  (overlapped %.4g s, collective %.4g s, %d kernel launches)\n",
						r.ID, r.TotalS, r.OverlappedS, r.CollectiveS, r.Kernels.Total())
				}
				return b.String()
			})
	}
}

func hostbenchCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	compare, threshold := gateFlags(fs, "BENCH_host.json", 0.25) // generous: shared CI runners are noisy
	return func([]string) error {
		return gated(o, *compare, cross.HostBenchRunFile,
			func(f cross.HostBenchFile) int { return len(f.Records) },
			func(old, cur cross.HostBenchFile) cross.GateResult { return cross.HostBenchGate(old, cur, *threshold) },
			func(f cross.HostBenchFile) string {
				var b strings.Builder
				for _, r := range f.Records {
					fmt.Fprintf(&b, "%-28s %12.0f ns/op %8.3g allocs/op\n", r.ID, r.NsPerOp, r.AllocsPerOp)
				}
				return b.String()
			})
	}
}

func calibCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	// Published-source drift is deterministic: 10% absolute model-error growth gates.
	compare, threshold := gateFlags(fs, "BENCH_calib.json", 0.10)
	var cfg cross.CalibConfig
	fs.IntVar(&cfg.Repeats, "repeats", 0, "raw timing samples per host measurement point (default 5)")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "fitter worker count (0 = NumCPU); output is identical at every value")
	return func([]string) error {
		return gated(o, *compare,
			func() (*cross.CalibReport, error) { return cross.Calib(cfg) },
			func(r *cross.CalibReport) int { return len(r.Records) },
			func(old, cur *cross.CalibReport) cross.GateResult { return cross.CalibGate(old, cur, *threshold) },
			(*cross.CalibReport).Summary)
	}
}

// refreshCmd rewrites all three committed baselines from one fresh run
// — the single documented workflow for intentional model or hardware
// changes (DESIGN.md §15).
func refreshCmd(fs *flag.FlagSet, o *output) func([]string) error {
	parallel := fs.Int("parallel", 0, "sweep and fitter worker count (0 = NumCPU); output is identical at every value")
	repeats := fs.Int("repeats", 0, "calib: raw timing samples per host measurement point (default 5)")
	return func([]string) error {
		recs, err := cross.Sweep(cross.SweepConfig{Parallel: *parallel})
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_baseline.json", recs); err != nil {
			return err
		}
		fmt.Fprintf(o.w, "BENCH_baseline.json  %d sweep record(s)\n", len(recs))

		file, err := cross.HostBenchRunFile()
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_host.json", file); err != nil {
			return err
		}
		fmt.Fprintf(o.w, "BENCH_host.json      %d host record(s), %s\n", len(file.Records), file.Env.CPUModel)

		rep, err := cross.Calib(cross.CalibConfig{Repeats: *repeats, Parallel: *parallel})
		if err != nil {
			return err
		}
		if err := writeJSON("BENCH_calib.json", rep); err != nil {
			return err
		}
		fmt.Fprintf(o.w, "BENCH_calib.json     %d calibration record(s)\n%s", len(rep.Records), rep.Summary())
		return nil
	}
}

// serveFlags registers the scenario flags serve, chaos and plan share
// and returns the builder of their ServeConfig, called after parsing.
// With faulty (serve and chaos) it also registers -fleet and the fault
// knobs, and the built config carries them in a non-nil Faults (a zero
// fault config runs fault-free, byte-identically).
func serveFlags(fs *flag.FlagSet, faulty bool) func() (cross.ServeConfig, error) {
	var cfg cross.ServeConfig
	fs.StringVar(&cfg.Spec, "device", "", "device of a homogeneous fleet (default TPUv6e; "+cross.TargetNames()+")")
	fs.StringVar(&cfg.Set, "set", "B", "parameter-set letter A-D")
	fs.Float64Var(&cfg.Rate, "rate", 0, "offered load in requests/s (0 = 70% of fleet capacity)")
	fs.IntVar(&cfg.Pods, "pods", 0, "fleet size in pods (default 4)")
	fs.IntVar(&cfg.CoresPerPod, "cores", 0, "cores per pod (default 1)")
	fs.StringVar(&cfg.Policy, "policy", "", "dispatch policy (round-robin, least-loaded, jsq, cheapest)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "arrival PRNG seed (default 1)")
	fs.Float64Var(&cfg.HorizonS, "horizon", 0, "arrival window in simulated seconds (default 0.25)")
	fs.IntVar(&cfg.MaxBatch, "batch", 0, "max batch size per launch (default 8; 1 disables batching)")
	fs.Float64Var(&cfg.MaxDelayS, "delay", 0, "max queue delay in seconds an idle pod holds a non-full batch")
	fs.BoolVar(&cfg.Overlap, "overlap", false, "price service times at the overlap-aware OverlappedTotal instead of the serial total")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "pre-pricing worker count (0 = NumCPU); output is identical at every value")
	mix := fs.String("mix", "", `workload mix as "HE-Mult=0.6,Rotate=0.3,MNIST=0.1" (default mixed operator+MNIST traffic)`)
	classes := fs.String("classes", "", `SLO classes "name:priority[:deadline_s[:queue_limit]]", comma-separated; bind mix entries with weight@class`)
	var fleet string
	var fc cross.FaultConfig
	if faulty {
		fs.StringVar(&fleet, "fleet", "", `heterogeneous fleet "device:cores:count[:dollar_hr]" groups joined by "+" (instead of -device/-pods/-cores)`)
		fs.Int64Var(&fc.Seed, "fault-seed", 0, "fault injector PRNG seed, independent of -seed (default 1)")
		fs.Float64Var(&fc.MTBFS, "mtbf", 0, "per-pod mean time between crashes in seconds (0 = no crashes)")
		fs.Float64Var(&fc.MTTRS, "mttr", 0, "per-pod mean time to recover in seconds (default mtbf/10)")
		fs.Float64Var(&fc.StragglerFactor, "straggler", 0, "transient-straggler slowdown factor ≥ 1 (0 = off)")
		fs.Float64Var(&fc.BatchErrorProb, "batcherr", 0, "i.i.d. probability that a batch launch fails transiently")
		fs.Float64Var(&fc.DeadlineS, "deadline", 0, "per-request deadline in seconds; timed-out requests never count completed (0 = none)")
		fs.IntVar(&fc.MaxRetries, "retries", 0, "max re-dispatches for a request lost to a crash or batch error")
		fs.BoolVar(&fc.Hedge, "hedge", false, "hedged dispatch: copy a slow batch to an idle pod, first finisher wins")
		fs.IntVar(&fc.QueueLimit, "shed", 0, "shed arrivals when the dispatched pod already queues this many requests (0 = unbounded)")
	}
	return func() (cross.ServeConfig, error) {
		var err error
		if fleet != "" {
			if cfg.Fleet, err = cross.ServeParseFleet(fleet); err != nil {
				return cfg, err
			}
		}
		if *mix != "" {
			if cfg.Mix, err = parseMix(*mix); err != nil {
				return cfg, err
			}
		}
		if *classes != "" {
			if cfg.Classes, err = parseClasses(*classes); err != nil {
				return cfg, err
			}
		}
		if faulty {
			cfg.Faults = &fc
		}
		return cfg, nil
	}
}

func serveCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	build := serveFlags(fs, true)
	faultsOn := fs.Bool("faults", false, "enable the deterministic fault model and recovery machinery set by the fault flags (DESIGN.md §16)")
	trace := fs.String("trace", "", "replay arrivals from a JSON or CSV trace file instead of the Poisson source")
	stats := fs.String("stats", "", "latency statistics mode: stored (exact, default) or streaming (O(1)-memory P² latency accumulators; every arrival is still held in memory, ~330 B/request)")
	return func([]string) error {
		cfg, err := build()
		if err != nil {
			return err
		}
		if !*faultsOn {
			if !cfg.Faults.IsZero() {
				return usageError("the fault flags (-mtbf, -retries, …) need -faults")
			}
			cfg.Faults = nil
		}
		cfg.TracePath, cfg.Stats = *trace, *stats
		r, err := cross.Serve(cfg)
		if err != nil {
			return err
		}
		return o.emit(r, r.Summary)
	}
}

// chaosCmd sweeps the serving scenario across the default crash-MTBF
// grid. The cells take their recovery knobs from the fault flags; the
// grid overrides -mtbf per cell.
func chaosCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	build := serveFlags(fs, true)
	return func([]string) error {
		cfg, err := build()
		if err != nil {
			return err
		}
		r, err := cross.ServeChaos(cross.ServeChaosConfig{Serve: cfg})
		if err != nil {
			return err
		}
		return o.emit(r, r.Summary)
	}
}

func planCmd(fs *flag.FlagSet, o *output) func([]string) error {
	o.flags(fs, true)
	build := serveFlags(fs, false)
	fleets := fs.String("fleets", "", "comma-separated candidate fleet specs (default 1/2/4/8-pod ladder of -device)")
	slo := fs.Float64("slo", 0, "target p99 latency in seconds")
	return func([]string) error {
		cfg, err := build()
		if err != nil {
			return err
		}
		pc := cross.ServePlanConfig{Base: cfg, TargetP99S: *slo}
		if *fleets != "" {
			if pc.Fleets, err = cross.ServeParseFleets(*fleets); err != nil {
				return err
			}
		}
		r, err := cross.ServePlan(pc)
		if err != nil {
			return err
		}
		return o.emit(r, r.Summary)
	}
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
