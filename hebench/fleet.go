package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"cross/internal/faults"
	"cross/internal/serve"
	"cross/internal/sweep"
)

// fleet-model: one job is what an architect or capacity planner runs
// against the model: a cold-cache sweep of one parameter set across
// every device, core count and workload (175 cases; four consecutive
// jobs cover the whole 700-case cross-product), checked record for
// record against the committed reference, then one fault-injected
// serving run of a mixed TPU/GPU fleet with two SLO classes. A job is
// sized so that a run holds the hundred-odd jobs a p90 needs.
const (
	fleetSpec     = "TPUv6e:1:4+H100:1:2+TPUv5e:4:2"
	fleetRequests = 50_000 // mean simulated arrivals per serving run
	fleetLoad     = 0.7    // offered load, as a share of fleet capacity
	baselinePath  = "BENCH_baseline.json"
)

type fleet struct {
	tr       *tracer
	workers  int
	baseline map[string][]sweep.Record // reference records by parameter set
	serve    serve.Config
	// record is the run's first serve record: the scenario is the same
	// in every job, so every later record must match it byte for byte.
	record []byte
	// tamper, when set, rewrites the swept records before they are
	// checked (tests inject wrong results through it).
	tamper func([]sweep.Record)
}

// fleetScenario is the serving scenario for a seed, at horizon
// horizonS simulated seconds.
func fleetScenario(seed int64, workers int, horizonS float64) (serve.Config, error) {
	groups, err := serve.ParseFleet(fleetSpec)
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Seed:     seed,
		Fleet:    groups,
		Policy:   serve.PolicyLeastLoaded,
		HorizonS: horizonS,
		Mix: []serve.MixEntry{
			{Workload: sweep.WorkloadHEMult, Weight: 0.5, Class: "interactive"},
			{Workload: sweep.WorkloadRotate, Weight: 0.3, Class: "interactive"},
			{Workload: sweep.WorkloadMNIST, Weight: 0.2, Class: "batch"},
		},
		Classes: []serve.SLOClass{
			{Name: "interactive", Priority: 10, DeadlineS: 0.1},
			{Name: "batch", Priority: 0, DeadlineS: 1},
		},
		Stats: serve.StatsStreaming,
		Faults: &faults.Config{
			Seed:  seed ^ 0x6661_756c_7473, // "faults"
			MTBFS: horizonS / 4, MTTRS: horizonS / 200,
			StragglerFactor: 4, StragglerMTBFS: horizonS / 8, StragglerMeanS: horizonS / 200,
			BatchErrorProb: 0.01, MaxRetries: 3, Hedge: true, QueueLimit: 64,
		},
		Parallel: workers,
	}, nil
}

func newFleet(o options, tr *tracer) (bench, error) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return nil, fmt.Errorf("fleet-model: reference records: %w", err)
	}
	var recs []sweep.Record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("fleet-model: reference records: %w", err)
	}
	f := &fleet{tr: tr, workers: o.workers, baseline: make(map[string][]sweep.Record)}
	for _, r := range recs {
		f.baseline[r.Params] = append(f.baseline[r.Params], r)
	}
	// Price the fleet once to size the horizon for the request count.
	probe, err := fleetScenario(o.seed, o.workers, 0.01)
	if err != nil {
		return nil, fmt.Errorf("fleet-model: %w", err)
	}
	r, err := serve.Run(probe)
	if err != nil {
		return nil, fmt.Errorf("fleet-model: pricing the fleet: %w", err)
	}
	requests := fleetRequests
	if o.smoke {
		requests /= 10
	}
	rate := fleetLoad * r.CapacityRate
	if f.serve, err = fleetScenario(o.seed, o.workers, float64(requests)/rate); err != nil {
		return nil, fmt.Errorf("fleet-model: %w", err)
	}
	f.serve.Rate = rate
	return f, nil
}

func (f *fleet) prepare(j int) job {
	set := sweep.DefaultSets[j%len(sweep.DefaultSets)]
	return func() (outcome, error) {
		s := f.tr.begin("sweep.run")
		recs, err := sweep.Run(sweep.Config{Sets: []string{set}, Parallel: f.workers})
		f.tr.end(s)
		if err != nil {
			return outcome{}, fmt.Errorf("fleet-model: sweep: %w", err)
		}
		if f.tamper != nil {
			f.tamper(recs)
		}
		// Records must equal the reference exactly: precision reads 53
		// bits (all of a float64) on a match.
		if !reflect.DeepEqual(recs, f.baseline["Set"+set]) {
			return outcome{}, fmt.Errorf("fleet-model: job %d: sweep records differ from %s", j, baselinePath)
		}

		var m0, m1 runtime.MemStats
		if f.tr.enabled() {
			runtime.ReadMemStats(&m0)
		}
		s = f.tr.begin("serve.run")
		res, err := serve.Run(f.serve)
		f.tr.end(s)
		if err != nil {
			return outcome{}, fmt.Errorf("fleet-model: serve: %w", err)
		}
		if f.tr.enabled() {
			runtime.ReadMemStats(&m1)
		}
		a := res.Availability
		if a == nil {
			return outcome{}, fmt.Errorf("fleet-model: job %d: serve record has no availability section", j)
		}
		if res.Completed+a.Shed+a.TimedOut+a.Failed != res.Requests {
			return outcome{}, fmt.Errorf("fleet-model: job %d: completed %d + shed %d + timed out %d + failed %d != %d requests",
				j, res.Completed, a.Shed, a.TimedOut, a.Failed, res.Requests)
		}
		rec, err := json.Marshal(res)
		if err != nil {
			return outcome{}, fmt.Errorf("fleet-model: serve record: %w", err)
		}
		if f.record == nil {
			f.record = rec
		} else if !bytes.Equal(rec, f.record) {
			return outcome{}, fmt.Errorf("fleet-model: job %d: serve record differs from the run's first for the same scenario", j)
		}
		layer := map[string]float64{
			"sweep.records":         float64(len(recs)),
			"serve.requests":        float64(res.Requests),
			"serve.completed":       float64(res.Completed),
			"serve.shed":            float64(a.Shed),
			"serve.timed_out":       float64(a.TimedOut),
			"serve.failed":          float64(a.Failed),
			"faults.retries":        float64(a.Retries),
			"faults.hedges":         float64(a.Hedges),
			"faults.crashes":        float64(a.Crashes),
			"faults.batch_errors":   float64(a.BatchErrors),
			"serve.alloc_b_per_req": float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Requests),
		}
		return outcome{units: float64(res.Requests), bits: 53, worstBits: 53, layer: layer}, nil
	}
}

// probe times the layers a job cannot separate: the lowering of each
// workload alone (a one-workload-axis sweep) and the pricing inside a
// serving run (the same fleet at a horizon of a few requests).
func (f *fleet) probe() (map[string]float64, error) {
	out := make(map[string]float64)
	timed := func(name string, op func() error) error {
		s := f.tr.begin(name)
		start := time.Now()
		err := op()
		out[name] = float64(time.Since(start).Nanoseconds()) / 1e6
		f.tr.end(s)
		return err
	}
	for _, wl := range sweep.DefaultWorkloads {
		if err := timed("cross.lower_ms."+wl, func() error {
			_, err := sweep.Run(sweep.Config{Workloads: []string{wl}, Parallel: f.workers})
			return err
		}); err != nil {
			return nil, fmt.Errorf("fleet-model: lowering %s: %w", wl, err)
		}
	}
	tiny := f.serve
	tiny.HorizonS = 10 / f.serve.Rate
	if err := timed("serve.price_ms", func() error { _, err := serve.Run(tiny); return err }); err != nil {
		return nil, fmt.Errorf("fleet-model: pricing: %w", err)
	}
	return out, nil
}
