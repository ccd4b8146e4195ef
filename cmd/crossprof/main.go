// Command crossprof prints Fig. 12-style latency breakdowns for any HE
// operator on any simulated TPU target and parameter set — the
// reproduction's stand-in for the XLA profiler trace viewer. The tool
// is a thin shell over the Schedule IR: it compiles for a Target (one
// tensor core, or a -cores N pod), lowers one operator, and renders
// the returned Schedule.
//
// Usage:
//
//	crossprof -device TPUv6e -set D -op mult
//	crossprof -device TPUv4  -set B -op rotate
//	crossprof -device TPUv6e -set D -op mult -cores 4   # pod lowering
//	crossprof -op bootstrap
//
// Run with: go run ./cmd/crossprof [flags]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cross"
	icross "cross/internal/cross"
	"cross/internal/tpusim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one crossprof invocation and returns its exit code: 0
// on success, 1 on an invalid value, 2 on a flag the parser rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crossprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	device := fs.String("device", "TPUv6e", "TPU generation (TPUv4, TPUv5e, TPUv5p, TPUv6e)")
	set := fs.String("set", "D", "parameter set (A, B, C, D)")
	op := fs.String("op", "mult", "operator: add, mult, rescale, rotate, keyswitch, bootstrap, ntt, intt")
	batch := fs.Int("batch", 1, "batch size for ntt/intt (≥ 1)")
	cores := fs.Int("cores", 1, "core count: 1 profiles a single tensor core, >1 a pod")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "crossprof: "+format+"\n", a...)
		return 1
	}

	spec, ok := tpusim.SpecByName(*device)
	if !ok {
		return fail("unknown device %q", *device)
	}
	if *cores < 1 {
		return fail("invalid core count %d (need ≥ 1)", *cores)
	}
	if *batch < 1 {
		return fail("invalid batch size %d (need ≥ 1)", *batch)
	}
	params, err := icross.NamedSet(*set)
	if err != nil {
		return fail("%v", err)
	}

	// Devices and pods are both Targets; one Compile call covers both.
	var target cross.Target = cross.NewDevice(spec)
	if *cores > 1 {
		pod, err := cross.NewPod(spec, *cores)
		if err != nil {
			return fail("%v", err)
		}
		target = pod
	}
	comp, err := cross.Compile(target, params)
	if err != nil {
		return fail("%v", err)
	}

	lower := map[string]func() *cross.Schedule{
		"add": comp.LowerHEAdd, "mult": comp.LowerHEMult, "rescale": comp.LowerRescale,
		"rotate": comp.LowerRotate, "keyswitch": comp.LowerKeySwitch,
		"bootstrap": func() *cross.Schedule { return comp.LowerBootstrap(icross.DefaultBootstrapSchedule(params)) },
		"ntt":       func() *cross.Schedule { return comp.LowerNTT(*batch) },
		"intt":      func() *cross.Schedule { return comp.LowerINTT(*batch) },
	}[*op]
	if lower == nil {
		return fail("unknown operator %q", *op)
	}
	sched := lower()

	fmt.Fprintf(stdout, "%s on %s, Set %s (N=2^%d, L=%d, dnum=%d, split %dx%d)\n",
		sched.Op, sched.Target, *set, params.LogN, params.L, params.Dnum, params.R, params.C)
	fmt.Fprintf(stdout, "simulated latency: %.2f µs", sched.Total*1e6)
	if sched.Cores > 1 {
		fmt.Fprintf(stdout, " (%d cores, %.2f µs collective)", sched.Cores, sched.Collective*1e6)
	}
	fmt.Fprintf(stdout, "\nkernel launches: %s\n\n", sched.Kernels)
	fmt.Fprintln(stdout, "category breakdown:")
	fmt.Fprintln(stdout, sched.Breakdown())
	return 0
}
