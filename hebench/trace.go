package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer of the program, recorded from
// the benchmark's side of the call.
type span struct {
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) ms() float64 { return (s.End - s.Start) / 1e3 }

// tracer keeps spans in memory. A nil or disabled tracer records
// nothing, so the timed run pays only a branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	job   int
	spans []span
	open  []int // indices of the spans still running, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span named name under the innermost open span and
// returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.enabled() {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Job: t.job, ID: id, Parent: parent, Start: t.now()})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// layerStats is one span name's totals within one job.
type layerStats struct {
	ms, selfMs float64
	calls      int
}

// perJob sums every span by job and name. Self time is a span's
// duration minus the part of it its children cover.
func (t *tracer) perJob() map[int]map[string]*layerStats {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]map[string]*layerStats)
	for _, s := range t.spans {
		byName := out[s.Job]
		if byName == nil {
			byName = make(map[string]*layerStats)
			out[s.Job] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStats{}
			byName[s.Name] = st
		}
		st.ms += s.ms()
		st.selfMs += s.ms() - covered(children[s.ID])
		st.calls++
	}
	return out
}

// covered returns the length in ms of the union of the spans' intervals.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, lo, hi float64
	open := false
	for _, s := range spans {
		switch {
		case !open:
			lo, hi, open = s.Start, s.End, true
		case s.Start > hi:
			total += hi - lo
			lo, hi = s.Start, s.End
		case s.End > hi:
			hi = s.End
		}
	}
	if open {
		total += hi - lo
	}
	return total / 1e3
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
