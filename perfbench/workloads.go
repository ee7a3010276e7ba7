package main

// The three workloads. Each sets up from the seed (serial oracle, one
// dsmpm2.New of its configuration, and the tuner recording for sweep),
// makes one measured call per run, checks the answer against the oracle and
// collects the run's virtual-time results and counters.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
	"dsmpm2/internal/tune"
)

// workload is one benchmark input. run is the only timed call; verify and
// collect read the result run left behind.
type workload interface {
	// setup prepares runs for seed; the benchmark times it as setup_s.
	setup(seed int64, tr *tracer) error
	run() error
	// verify checks the last run's answer: it returns the number of ops
	// whose answer was wrong, and an error when the program's output
	// cannot be trusted (a wrong checksum, a mis-flagged tuner cell).
	verify() (failed int, err error)
	// collect returns the last run's deterministic results.
	collect() outcome
	// ops is the number of ops one run performs.
	ops() int
}

// outcome is everything about one run that must repeat exactly for a seed:
// the system fingerprint and every virtual-time result and count.
type outcome struct {
	fingerprint string
	virt        map[string]float64
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "jacobi":
		return &jacobiWL{}, nil
	case "serve":
		return &serveWL{}, nil
	case "sweep":
		return &sweepWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (valid: jacobi, serve, sweep)", name)
}

// jacobi: a 64-node SOR stencil under hbrc_mw on BIP/Myrinet. One op is one
// grid-cell update.
const jacobiN, jacobiIters, jacobiNodes = 64, 300, 64

type jacobiWL struct {
	cfg    jacobi.Config
	oracle float64
	res    jacobi.Result
}

func (w *jacobiWL) setup(seed int64, tr *tracer) error {
	w.cfg = jacobi.Config{
		N: jacobiN, Iterations: jacobiIters, Nodes: jacobiNodes,
		Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: seed,
	}
	tr.span("setup.oracle", func() error {
		w.oracle = jacobi.SolveSerial(jacobiN, jacobiIters)
		return nil
	})
	return tr.span("setup.system", func() error {
		_, err := dsmpm2.New(dsmpm2.Config{Nodes: w.cfg.Nodes, Network: w.cfg.Network,
			Protocol: w.cfg.Protocol, Seed: seed})
		return err
	})
}

func (w *jacobiWL) run() (err error) {
	w.res, err = jacobi.Run(w.cfg)
	return err
}

func (w *jacobiWL) verify() (int, error) {
	if w.res.Checksum != w.oracle {
		return w.ops(), fmt.Errorf("jacobi checksum %v, serial oracle %v", w.res.Checksum, w.oracle)
	}
	return 0, nil
}

func (w *jacobiWL) collect() outcome {
	return systemOutcome(w.res.System, w.res.Stats, w.res.Elapsed, w.ops())
}

func (w *jacobiWL) ops() int { return jacobiN * jacobiN * jacobiIters }

// serve: the kvstore under open-loop Poisson arrivals and Zipf(1.3) keys,
// 90/10 get/put with two hot-key churn phases, 4 nodes x 16 buckets under
// entry_mw, homes misplaced on node 0 with adaptive homes on. One op is one
// request.
const serveRequests = 80000

type serveWL struct {
	cfg    kvstore.Config
	oracle uint64
	res    kvstore.Result
}

func (w *serveWL) setup(seed int64, tr *tracer) error {
	w.cfg = kvstore.Config{
		Nodes: 4, Buckets: 16, Requests: serveRequests, Phases: 2,
		ReadFraction: 0.9, ZipfS: 1.3, Network: dsmpm2.BIPMyrinet,
		Protocol: "entry_mw", Seed: seed, MisplaceHomes: true, AdaptiveHomes: true,
	}
	err := tr.span("setup.oracle", func() (err error) {
		w.oracle, _, err = kvstore.ServeSerial(w.cfg)
		return err
	})
	if err != nil {
		return err
	}
	return tr.span("setup.system", func() error {
		_, err := dsmpm2.New(dsmpm2.Config{Nodes: w.cfg.Nodes, Network: w.cfg.Network,
			Protocol: w.cfg.Protocol, Seed: seed, AdaptiveHomes: true})
		return err
	})
}

func (w *serveWL) run() (err error) {
	w.res, err = kvstore.Run(w.cfg)
	return err
}

func (w *serveWL) verify() (int, error) {
	failed := w.ops() - int(w.res.Served)
	if w.res.Checksum != w.oracle {
		return w.ops(), fmt.Errorf("kvstore checksum %#x, serial oracle %#x", w.res.Checksum, w.oracle)
	}
	if failed != 0 {
		return failed, fmt.Errorf("kvstore served %d of %d requests", w.res.Served, w.ops())
	}
	return 0, nil
}

func (w *serveWL) collect() outcome {
	o := systemOutcome(w.res.System, w.res.Stats, w.res.Elapsed, w.ops())
	get, put := w.res.Op("get"), w.res.Op("put")
	o.virt["app.get_p50_us"] = get.P50.Microseconds()
	o.virt["app.get_p99_us"] = get.P99.Microseconds()
	o.virt["app.put_p99_us"] = put.P99.Microseconds()
	o.virt["app.get_samples"] = float64(get.Count)
	o.virt["app.put_samples"] = float64(put.Count)
	o.virt["app.idle_polls_per_op"] = float64(w.res.IdleTicks) / float64(w.ops())
	return o
}

func (w *serveWL) ops() int { return serveRequests }

// systemOutcome reads a finished system's deterministic results through the
// public API: fingerprint, virtual makespan, DSM counters, the kernel's
// event count, the thread count and the network's wire counters.
func systemOutcome(sys *dsmpm2.System, st dsmpm2.Stats, elapsed dsmpm2.Time, ops int) outcome {
	rt := sys.Runtime()
	_, bytes := rt.Network().Stats()
	v := counterMetrics(st, float64(ops))
	v["sim.virtual_ms"] = float64(elapsed) / 1e6
	v["sim.events_per_op"] = float64(rt.Engine().Events()) / float64(ops)
	v["pm2.threads_per_op"] = float64(rt.ThreadCount()) / float64(ops)
	v["madeleine.envelopes_per_op"] = float64(rt.Network().Envelopes()) / float64(ops)
	v["madeleine.bytes_per_op"] = float64(bytes) / float64(ops)
	for k, x := range faultSplit(sys.Timings().All()) {
		v[k] = x
	}
	return outcome{fingerprint: sys.Fingerprint(), virt: v}
}

// counterMetrics turns DSM counters into per-op ratios over ops.
func counterMetrics(st dsmpm2.Stats, ops float64) map[string]float64 {
	v := map[string]float64{
		"app.ops_per_run":             ops,
		"core.read_faults_per_op":     float64(st.ReadFaults) / ops,
		"core.write_faults_per_op":    float64(st.WriteFaults) / ops,
		"core.remote_fetches_per_op":  float64(st.RemoteFetches) / ops,
		"core.diff_bytes_per_op":      float64(st.DiffBytes) / ops,
		"core.acquires_per_op":        float64(st.Acquires) / ops,
		"core.envelopes":              float64(st.Envelopes),
		"core.sends_per_envelope":     ratio(float64(st.Sends), float64(st.Envelopes)),
		"isomalloc.alloc_bytes":       float64(st.AllocBytes),
		"protocols.home_migrations":   float64(st.HomeMigrations),
		"protocols.thread_migrations": float64(st.Migrations),
		"protocols.misplaced_fetch_frac": ratio(float64(st.MisplacedFetches),
			float64(st.RemoteFetches)),
	}
	return v
}

// faultSplit averages the recorded fault timings into the paper's Table 3/4
// split (virtual microseconds), with the number of records averaged. The
// timing log keeps the most recent 4096 faults.
func faultSplit(recs []*dsmpm2.FaultTiming) map[string]float64 {
	var req, srv, xfer, inst, total dsmpm2.Duration
	for _, ft := range recs {
		req += ft.Request
		srv += ft.Server
		xfer += ft.Transfer
		inst += ft.Install
		total += ft.Total
	}
	n := float64(len(recs))
	us := func(d dsmpm2.Duration) float64 { return ratio(float64(d)/1e3, n) }
	return map[string]float64{
		"core.fault_request_us":  us(req),
		"core.fault_server_us":   us(srv),
		"core.fault_transfer_us": us(xfer),
		"core.fault_install_us":  us(inst),
		"core.fault_total_us":    us(total),
		"core.fault_records":     n,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sweep: the tuner's full default grid over the jacobi recording, no cache
// ledger, one worker per CPU. One op is one grid cell. A cell whose answer
// is wrong is a failed op; the run stays correct as long as the tuner flags
// exactly the cells an independent re-run finds wrong.
type sweepWL struct {
	oracle float64
	rec    *tune.Recording
	rep    *tune.Report
	// checked holds the benchmark's own re-run of every cell of the grid,
	// made by the first verify, and checkCounts the grid's counters.
	checked     map[string]tune.CellResult
	checkCounts map[string]float64
}

// The tuner's pinned jacobi dimensions, which the independent re-run of a
// cell must match.
const sweepN, sweepIters, sweepNodes = 16, 4, 8

func (w *sweepWL) setup(seed int64, tr *tracer) error {
	tr.span("setup.oracle", func() error {
		w.oracle = jacobi.SolveSerial(sweepN, sweepIters)
		return nil
	})
	err := tr.span("setup.system", func() error {
		_, err := dsmpm2.New(dsmpm2.Config{Nodes: sweepNodes, Network: dsmpm2.BIPMyrinet,
			Protocol: "li_hudak", Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	return tr.span("setup.record", func() (err error) {
		w.rec, err = tune.Record("jacobi", seed)
		return err
	})
}

func (w *sweepWL) run() (err error) {
	w.rep, err = tune.Sweep(w.rec, tune.Options{Workers: runtime.NumCPU()})
	return err
}

func (w *sweepWL) ops() int {
	return len(tune.Protocols) * len(tune.Topologies) *
		len(tune.Placements) * len(tune.Comms)
}

func (w *sweepWL) verify() (int, error) {
	if len(w.rep.Cells) != w.ops() {
		return w.ops(), fmt.Errorf("sweep ranked %d cells, grid has %d", len(w.rep.Cells), w.ops())
	}
	if w.checked == nil {
		w.recheck()
	}
	failed := 0
	for _, c := range w.rep.Cells {
		want, ok := w.checked[c.Key()]
		if !ok {
			return w.ops(), fmt.Errorf("sweep cell %s is not in the grid", c.Key())
		}
		want.Rank = c.Rank
		if c != want {
			return w.ops(), fmt.Errorf("sweep cell %s: tuner reports %+v, re-run gives %+v", c.Key(), c, want)
		}
		if !c.Correct {
			failed++
		}
	}
	if !w.rep.Winner.Correct || w.rep.Winner != w.rep.Cells[0] {
		return w.ops(), fmt.Errorf("sweep winner %+v is not the top correct cell", w.rep.Winner)
	}
	return failed, nil
}

// recheck re-runs every grid cell through jacobi.Run with the cell's
// configuration, checks it against the serial oracle, and keeps the grid's
// counters for the per-layer report.
func (w *sweepWL) recheck() {
	w.checked = make(map[string]tune.CellResult, w.ops())
	var st dsmpm2.Stats
	var faults []*dsmpm2.FaultTiming
	var events, threads, envelopes, bytes float64
	for _, p := range tune.Protocols {
		for _, topo := range tune.Topologies {
			for _, pl := range tune.Placements {
				for _, cm := range tune.Comms {
					c := tune.Cell{Protocol: p, Topology: topo, Placement: pl, Comm: cm}
					chk, sys := w.runCell(c)
					w.checked[c.Key()] = chk
					if sys == nil {
						continue
					}
					s := sys.Stats()
					st.ReadFaults += s.ReadFaults
					st.WriteFaults += s.WriteFaults
					st.RemoteFetches += s.RemoteFetches
					st.MisplacedFetches += s.MisplacedFetches
					st.DiffBytes += s.DiffBytes
					st.Acquires += s.Acquires
					st.Sends += s.Sends
					st.Envelopes += s.Envelopes
					st.AllocBytes += s.AllocBytes
					st.HomeMigrations += s.HomeMigrations
					st.Migrations += s.Migrations
					faults = append(faults, sys.Timings().All()...)
					rt := sys.Runtime()
					_, b := rt.Network().Stats()
					events += float64(rt.Engine().Events())
					threads += float64(rt.ThreadCount())
					envelopes += float64(rt.Network().Envelopes())
					bytes += float64(b)
				}
			}
		}
	}
	n := float64(w.ops())
	v := counterMetrics(st, n)
	v["sim.events_per_op"] = events / n
	v["pm2.threads_per_op"] = threads / n
	v["madeleine.envelopes_per_op"] = envelopes / n
	v["madeleine.bytes_per_op"] = bytes / n
	for k, x := range faultSplit(faults) {
		v[k] = x
	}
	w.checkCounts = v
}

// runCell re-runs one cell, mapping its axes onto the jacobi configuration
// the tuner uses. A run that fails or panics is an incorrect cell with the
// error the tuner reports for it, and no system.
func (w *sweepWL) runCell(c tune.Cell) (res tune.CellResult, sys *dsmpm2.System) {
	defer func() {
		if r := recover(); r != nil {
			res, sys = tune.CellResult{Cell: c, Err: fmt.Sprintf("panic: %v", r)}, nil
		}
	}()
	cfg := jacobi.Config{
		N: sweepN, Iterations: sweepIters, Nodes: sweepNodes,
		Protocol: c.Protocol, Seed: w.rec.Seed,
		MisplaceHomes: c.Placement != "static",
		AdaptiveHomes: c.Placement == "adaptive",
		Unbatched:     c.Comm == "unbatched",
	}
	if c.Topology == "hier" {
		cfg.Topology = dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(sweepNodes, 2),
			dsmpm2.BIPMyrinet, dsmpm2.TCPFastEthernet)
	} else {
		cfg.Network = dsmpm2.BIPMyrinet
	}
	out, err := jacobi.Run(cfg)
	if err != nil {
		return tune.CellResult{Cell: c, Err: err.Error()}, nil
	}
	return tune.CellResult{
		Cell:           c,
		Correct:        out.Checksum == w.oracle,
		VirtualMS:      float64(out.Elapsed) / 1e6,
		Envelopes:      out.Stats.Envelopes,
		RemoteFetches:  out.Stats.RemoteFetches,
		HomeMigrations: out.Stats.HomeMigrations,
	}, out.System
}

func (w *sweepWL) collect() outcome {
	b, _ := json.Marshal(w.rep) // a Report always marshals
	sum := sha256.Sum256(b)
	v := map[string]float64{}
	for k, x := range w.checkCounts {
		v[k] = x
	}
	v["sim.virtual_ms"] = w.rep.Winner.VirtualMS
	return outcome{fingerprint: hex.EncodeToString(sum[:]), virt: v}
}
