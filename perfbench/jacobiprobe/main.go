// Command jacobiprobe times the benchmark's jacobi workload configuration
// (64 nodes, 64x64 grid, 300 sweeps, hbrc_mw on BIP/Myrinet) using nothing
// but jacobi.Run, jacobi.SolveSerial and the kernel's event counter, so it
// builds against older trees of the repository as well. After one warm-up
// run it makes -runs measured runs and prints one JSON line with each run's
// events per second, the event count, the ops (grid-cell updates) per run
// and the virtual makespan. bisect.sh uses it to compare commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
)

func main() {
	runs := flag.Int("runs", 3, "measured runs after the warm-up")
	seed := flag.Int64("seed", 1, "simulation seed")
	label := flag.String("label", "", "label copied into the output")
	flag.Parse()
	cfg := jacobi.Config{N: 64, Iterations: 300, Nodes: 64,
		Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: *seed}
	want := jacobi.SolveSerial(cfg.N, cfg.Iterations)
	out := struct {
		Label        string    `json:"label"`
		EventsPerSec []float64 `json:"events_per_sec"`
		Events       uint64    `json:"events"`
		Ops          int       `json:"ops"`
		VirtualMS    float64   `json:"virtual_ms"`
	}{Label: *label, Ops: cfg.N * cfg.N * cfg.Iterations}
	for i := 0; i <= *runs; i++ {
		runtime.GC()
		t0 := time.Now()
		res, err := jacobi.Run(cfg)
		wall := time.Since(t0).Seconds()
		if err != nil {
			fmt.Fprintln(os.Stderr, "jacobiprobe:", err)
			os.Exit(1)
		}
		if res.Checksum != want {
			fmt.Fprintf(os.Stderr, "jacobiprobe: checksum %v, serial oracle %v\n", res.Checksum, want)
			os.Exit(1)
		}
		out.Events = res.System.Runtime().Engine().Events()
		out.VirtualMS = float64(res.Elapsed) / 1e6
		if i > 0 {
			out.EventsPerSec = append(out.EventsPerSec, float64(out.Events)/wall)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "jacobiprobe:", err)
		os.Exit(1)
	}
}
