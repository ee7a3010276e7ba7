package main

// The traced run: spans recorded by the benchmark around each public call it
// makes, and a CPU profile split by repository layer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one timed call. Spans of one run share a run id: 0 for set-up,
// 1 for the warm-up run, 2 on for the measured runs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a top-level span
	Run     int    `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the traced process began tracing
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs call the same code.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // ids of the spans enclosing the current call
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun sets the run id of the spans that follow.
func (t *tracer) setRun(run int) {
	if t != nil {
		t.run = run
	}
}

// span times fn as a span named name, child of the innermost open span.
func (t *tracer) span(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	s := span{ID: len(t.spans) + 1, Run: t.run, Name: name, StartNS: int64(time.Since(t.t0))}
	if n := len(t.open); n > 0 {
		s.Parent = t.open[n-1]
	}
	t.spans = append(t.spans, s)
	t.open = append(t.open, s.ID)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[s.ID-1].EndNS = int64(time.Since(t.t0))
	return err
}

// startProfile starts the CPU profiler into memory; the returned function
// stops it and returns the profile.
func startProfile() (func() []byte, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() []byte {
		pprof.StopCPUProfile()
		return buf.Bytes()
	}, nil
}

// layerMetrics splits the profile's CPU time by layer and reads the set-up
// steps' times from the spans.
func (t *tracer) layerMetrics(prof []byte) (map[string]float64, error) {
	p, err := parseProfile(prof)
	if err != nil {
		return nil, err
	}
	byLayer, samples := p.attribute()
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	m := map[string]float64{"trace.cpu_samples": float64(samples)}
	for _, l := range cpuLayers {
		m[l+".cpu_share"] = ratio(float64(byLayer[l]), float64(total))
	}
	for _, step := range []string{"oracle", "system", "record"} {
		m["setup."+step+"_ms"] = 0
		for _, s := range t.spans {
			if s.Name == "setup."+step {
				m["setup."+step+"_ms"] += s.dur().Seconds() * 1e3
			}
		}
	}
	return m, nil
}

// write stores the spans and the profile as outDir/<stem>.spans.json and
// outDir/<stem>.pprof.
func (t *tracer) write(outDir, stem string, prof []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	js, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, stem+".spans.json"), js, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, stem+".pprof"), prof, 0o644)
}
