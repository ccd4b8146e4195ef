package tpusim

import "fmt"

// VM models a single-host TPU virtual machine: a group of tensor cores
// sharing one CPU host (§V-A "a TPU-VM refers to a group of TPU chips
// that share the same CPU host"). The paper's multi-core methodology is
// embarrassingly parallel — "we run the same kernel on each tensor core
// and report amortized single-batch latency" — which VM reproduces.
type VM struct {
	Spec  Spec
	Cores int
}

// AllVMs returns the four paper setups (Tab. IV: v4-8, v5litepod-4,
// v5p-8, v6e-8).
func AllVMs() []VM {
	return []VM{
		{Spec: TPUv4(), Cores: 8},
		{Spec: TPUv5e(), Cores: 4},
		{Spec: TPUv5p(), Cores: 8},
		{Spec: TPUv6e(), Cores: 8},
	}
}

// Name renders the paper's setup naming ("TPUv6e-8").
func (vm VM) Name() string { return fmt.Sprintf("%s-%d", vm.Spec.Name, vm.Cores) }

// AmortizedLatency converts one core's kernel latency to the VM-level
// amortized single-batch latency: all cores run independent instances,
// so per-instance latency divides by the core count.
func (vm VM) AmortizedLatency(perCore float64) float64 {
	return perCore / float64(vm.Cores)
}
