package main

// Measured runs happen in short-lived child processes of perfbench, each
// making the same fixed sequence: set up, one warm-up run, then a fixed
// number of measured runs. Every dsmpm2.System keeps its simulated threads'
// goroutines, and the memory they reach, until the process exits, so a
// long-lived process would grow by every run it made and later runs would
// pay for the earlier ones in GC work. A fixed sequence per process keeps
// each run's conditions the same however many runs fit in the time.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// childReport is what one child process prints: its runs' host samples and
// answers, and the outcome every run reproduced.
type childReport struct {
	Samples     map[string][]float64 `json:"samples"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Fingerprint string               `json:"fingerprint"`
	Virt        map[string]float64   `json:"virt"`
	// Traced is set by a traced child: CPU shares, set-up span times, and
	// the wall time of each traced run span.
	Traced     map[string]float64 `json:"traced,omitempty"`
	TracedRuns []float64          `json:"traced_runs,omitempty"`
}

// spawnChild runs one child process of this binary and decodes its report.
// The child is killed if this process dies, and always waited for.
func spawnChild(cfg config, traced bool) (*childReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-out", cfg.outDir}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var rep childReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	return &rep, nil
}

// runChild is the child process: set up, warm up, make the workload's fixed
// number of measured runs (under spans and the CPU profiler when traced),
// and print the report as JSON.
func runChild(cfg config, stdout io.Writer) error {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return err
	}
	var tr *tracer
	var stopProfile func() []byte
	if cfg.trace == 1 {
		tr = newTracer()
		if stopProfile, err = startProfile(); err != nil {
			return err
		}
	}
	if err := tr.span("setup", func() error { return w.setup(cfg.seed, tr) }); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	// The warm-up run fills pools and grows the heap; its outcome is the
	// reference every later run must reproduce.
	tr.setRun(1)
	if err := tr.span("run", w.run); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	if _, err := w.verify(); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	ref := w.collect()
	rep := &childReport{Samples: map[string][]float64{}, Fingerprint: ref.fingerprint, Virt: ref.virt}

	for i := 0; i < runsPerChild(w); i++ {
		tr.setRun(i + 2)
		s, err := timedRun(w, tr)
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var failed int
		err = tr.span("verify", func() (err error) {
			failed, err = w.verify()
			return err
		})
		if err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		var out outcome
		tr.span("collect", func() error {
			out = w.collect()
			return nil
		})
		if err := sameOutcome(ref, out); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		rep.Attempted += w.ops()
		rep.Failed += failed
		s.add(rep.Samples, w.ops())
	}

	if tr != nil {
		prof := stopProfile()
		if rep.Traced, err = tr.layerMetrics(prof); err != nil {
			return err
		}
		for _, s := range tr.spans {
			if s.Name == "run" && s.Run >= 2 {
				rep.TracedRuns = append(rep.TracedRuns, s.dur().Seconds())
			}
		}
		stem := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
		if err := tr.write(cfg.outDir, stem, prof); err != nil {
			return err
		}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// runsPerChild is the fixed number of measured runs one child makes,
// bounded by the memory the runs leave behind: a jacobi run keeps about
// 30 MB, a serve run 65 MB and a sweep, which builds 132 systems, 85 MB.
func runsPerChild(w workload) int {
	switch w.(type) {
	case *jacobiWL:
		return 5
	case *serveWL:
		return 3
	}
	return 2
}

// sample is one measured run's host measurements.
type sample struct {
	wall, cpu, allocs, peakHeap, gcCycles, gcPause float64
	// retained is the heap still in use after the run once collected,
	// beyond what was in use before it; goroutines the goroutines it left.
	retained, goroutines float64
}

// add appends the sample's per-run values to the named series.
func (s sample) add(series map[string][]float64, ops int) {
	put := func(k string, v float64) { series[k] = append(series[k], v) }
	put("wall_s", s.wall)
	put("ops_per_s", float64(ops)/s.wall)
	put("ops_per_cpu_s", float64(ops)/s.cpu)
	put("allocs_per_op", s.allocs/float64(ops))
	put("peak_heap_mb", s.peakHeap/1e6)
	put("runtime.cpu_util", s.cpu/(s.wall*float64(runtime.GOMAXPROCS(0))))
	put("runtime.gc_cycles", s.gcCycles)
	put("runtime.gc_pause_ms", s.gcPause*1e3)
	put("runtime.retained_mb_per_run", s.retained/1e6)
	put("runtime.goroutines_per_run", s.goroutines)
}

// timedRun makes one measured call with a heap sampler beside it; the
// sampler reads runtime/metrics, which does not stop the world.
func timedRun(w workload, tr *tracer) (sample, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g0 := runtime.NumGoroutine()
	cpu0 := processCPU()
	stop, done := make(chan struct{}), make(chan float64)
	go func() { done <- samplePeakHeap(stop) }()
	t0 := time.Now()
	err := tr.span("run", w.run)
	wall := time.Since(t0).Seconds()
	close(stop)
	peak := <-done
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&after)
	s := sample{
		wall:     wall,
		cpu:      cpu,
		allocs:   float64(after.Mallocs - before.Mallocs),
		peakHeap: peak,
		gcCycles: float64(after.NumGC - before.NumGC),
		gcPause:  float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.retained = float64(after.HeapInuse) - float64(before.HeapInuse)
	s.goroutines = float64(runtime.NumGoroutine() - g0)
	return s, err
}

// samplePeakHeap returns the largest in-use heap (object bytes plus span
// fragmentation, as MemStats.HeapInuse) seen every 5 ms until stop closes.
func samplePeakHeap(stop <-chan struct{}) float64 {
	ms := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	var peak uint64
	read := func() {
		metrics.Read(ms)
		if v := ms[0].Value.Uint64() + ms[1].Value.Uint64(); v > peak {
			peak = v
		}
	}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		read()
		select {
		case <-stop:
			read()
			return float64(peak)
		case <-tick.C:
		}
	}
}

// processCPU returns the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sameOutcome reports how got differs from the reference run.
func sameOutcome(ref, got outcome) error {
	if got.fingerprint != ref.fingerprint {
		return fmt.Errorf("determinism: fingerprint %s, first run %s", got.fingerprint, ref.fingerprint)
	}
	if len(got.virt) != len(ref.virt) {
		return fmt.Errorf("determinism: %d results, first run %d", len(got.virt), len(ref.virt))
	}
	for k, v := range ref.virt {
		if got.virt[k] != v {
			return fmt.Errorf("determinism: %s = %v, first run %v", k, got.virt[k], v)
		}
	}
	return nil
}
