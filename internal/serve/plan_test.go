package serve

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func planBase() Config {
	return Config{
		Seed: 7, Set: "B",
		Policy: PolicyJSQ, HorizonS: 0.05, MaxBatch: 4,
		Mix: hemultOnly(),
	}
}

// TestPlanMixedFleetFrontier is the ISSUE acceptance scenario: plan a
// mixed TPUv6e+H100 candidate set and check the frontier is
// deterministic, SLO-respecting, and correctly ordered.
func TestPlanMixedFleetFrontier(t *testing.T) {
	pc := PlanConfig{
		Base: planBase(),
		Fleets: [][]FleetGroup{
			{{Device: "TPUv6e", Cores: 1, Count: 2}},
			{{Device: "H100", Cores: 1, Count: 1}},
			{{Device: "TPUv6e", Cores: 1, Count: 2}, {Device: "H100", Cores: 1, Count: 1}},
		},
		TargetP99S: 0.05,
	}
	pr, err := Plan(pc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Points) != 3 {
		t.Fatalf("want 3 frontier points, got %d", len(pr.Points))
	}
	feasibleSeen := 0
	for i, p := range pr.Points {
		if !p.Feasible {
			continue
		}
		feasibleSeen++
		if p.P99S > pc.TargetP99S {
			t.Errorf("point %d: p99 %g exceeds target %g", i, p.P99S, pc.TargetP99S)
		}
		if p.MaxRate <= 0 || p.MaxRate > p.CapacityRate {
			t.Errorf("point %d: max rate %g outside (0, capacity %g]", i, p.MaxRate, p.CapacityRate)
		}
		if p.DollarPerHour <= 0 || p.RPSPerDollarHour <= 0 || p.DollarPerMillion <= 0 {
			t.Errorf("point %d: cost fields unset: %+v", i, p)
		}
	}
	if feasibleSeen == 0 {
		t.Fatal("no candidate feasible; target too tight for the test to mean anything")
	}
	// Ordering: feasible before infeasible, then req/s/$ descending.
	for i := 1; i < len(pr.Points); i++ {
		a, b := pr.Points[i-1], pr.Points[i]
		if !a.Feasible && b.Feasible {
			t.Errorf("infeasible point ranked above feasible at %d", i)
		}
		if a.Feasible && b.Feasible && a.RPSPerDollarHour < b.RPSPerDollarHour {
			t.Errorf("frontier not sorted by req/s/$ at %d: %g < %g",
				i, a.RPSPerDollarHour, b.RPSPerDollarHour)
		}
	}
	// Determinism: the whole record is byte-identical across runs.
	first, _ := json.Marshal(pr)
	pr2, err := Plan(pc)
	if err != nil {
		t.Fatal(err)
	}
	second, _ := json.Marshal(pr2)
	if string(first) != string(second) {
		t.Fatal("plan frontier not deterministic")
	}
	// The summary names every candidate.
	sum := pr.Summary()
	for _, want := range []string{"TPUv6e:1:2", "H100:1:1", "req/s"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestPlanDefaultLadder: with no candidates, Plan sweeps a 1/2/4/8-pod
// ladder of the base device.
func TestPlanDefaultLadder(t *testing.T) {
	base := planBase()
	base.Spec = "TPUv5e"
	pr, err := Plan(PlanConfig{Base: base, TargetP99S: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Points) != 4 {
		t.Fatalf("default ladder should have 4 rungs, got %d", len(pr.Points))
	}
	counts := map[int]bool{}
	for _, p := range pr.Points {
		if len(p.Fleet) != 1 || p.Fleet[0].Device != "TPUv5e" {
			t.Errorf("ladder rung not homogeneous base device: %+v", p.Fleet)
		}
		counts[p.Fleet[0].Count] = true
	}
	for _, n := range []int{1, 2, 4, 8} {
		if !counts[n] {
			t.Errorf("ladder missing %d-pod rung", n)
		}
	}
}

// TestPlanInfeasibleTarget: an impossible SLO yields a frontier of
// infeasible points rather than an error — "nothing meets this" is a
// valid planning answer.
func TestPlanInfeasibleTarget(t *testing.T) {
	pr, err := Plan(PlanConfig{Base: planBase(), TargetP99S: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pr.Points {
		if p.Feasible {
			t.Errorf("point %d feasible at p99 ≤ 1ps", i)
		}
		if p.RPSPerDollarHour != 0 {
			t.Errorf("infeasible point %d reports efficiency %g", i, p.RPSPerDollarHour)
		}
	}
}

// TestPlanValidation: a plan without a finite positive target is
// rejected, as is one whose base config is broken.
func TestPlanValidation(t *testing.T) {
	for _, slo := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Plan(PlanConfig{Base: planBase(), TargetP99S: slo}); err == nil {
			t.Errorf("target p99 %g accepted", slo)
		}
	}
	bad := planBase()
	bad.Set = "Z"
	if _, err := Plan(PlanConfig{Base: bad, TargetP99S: 0.1}); err == nil {
		t.Error("broken base config accepted")
	}
}
