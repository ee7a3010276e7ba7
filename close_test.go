package dsmpm2_test

// System.Close: a finished system must give back every goroutine its
// simulated threads ran on (daemons and killed threads included), leave its
// results readable and unchanged, and refuse further runs with ErrClosed.

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"dsmpm2"
	"dsmpm2/internal/apps/jacobi"
	"dsmpm2/internal/apps/kvstore"
)

// settledGoroutines waits until the goroutine count is back to at most base.
// A retired carrier hands the token back just before its goroutine returns,
// so the count can lag Close by a scheduling quantum.
func settledGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain after Close, baseline %d", n, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOwnersReleaseGoroutines: every app Run closes its system, so after it
// returns the goroutine count is back at its baseline — also with tree
// barriers, and with a fault plan whose crashes kill parked threads.
func TestOwnersReleaseGoroutines(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"jacobi", func() error {
			_, err := jacobi.Run(jacobi.Config{N: 16, Iterations: 3, Nodes: 4,
				Network: dsmpm2.BIPMyrinet, Protocol: "hbrc_mw", Seed: 1})
			return err
		}},
		{"jacobi-treebarrier", func() error {
			_, err := jacobi.Run(jacobi.Config{N: 16, Iterations: 3, Nodes: 4,
				Topology: dsmpm2.HierarchicalTopology(dsmpm2.EvenClusters(4, 2),
					dsmpm2.BIPMyrinet, dsmpm2.TCPFastEthernet),
				Protocol: "hbrc_mw", Seed: 1, TreeBarrier: true})
			return err
		}},
		{"jacobi-faultplan", func() error {
			res, err := jacobi.Run(faultyJacobiConfig("hbrc_mw"))
			if err == nil && res.Recovery.Crashes == 0 {
				err = fmt.Errorf("fault plan crashed no node")
			}
			return err
		}},
		{"kvstore", func() error {
			_, err := kvstore.Run(kvstore.Config{Nodes: 4, Buckets: 16, Keys: 256,
				Requests: 600, Epochs: 6, Phases: 2, Seed: 7,
				MisplaceHomes: true, AdaptiveHomes: true})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			settledGoroutines(t, base)
		})
	}
}

// closeProbe is a small traced lock-and-page workload: 4 nodes increment a
// shared counter, so the system ends with faults, timings, spans and parked
// RPC dispatchers.
func closeProbe(t *testing.T) *dsmpm2.System {
	t.Helper()
	sys, err := dsmpm2.New(dsmpm2.Config{Nodes: 4, Protocol: "li_hudak",
		Seed: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	x := sys.MustMalloc(0, 8, nil)
	lock := sys.NewLock(0)
	for n := 0; n < sys.Nodes(); n++ {
		sys.Spawn(n, fmt.Sprintf("w%d", n), func(th *dsmpm2.Thread) {
			for i := 0; i < 3; i++ {
				th.Acquire(lock)
				th.WriteUint64(x, th.ReadUint64(x)+1)
				th.Release(lock)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// observed renders everything a finished system reports.
func observed(sys *dsmpm2.System) string {
	s := fmt.Sprintf("fp=%s now=%d stats=%+v spans=%d", sys.Fingerprint(), sys.Now(),
		sys.Stats(), sys.Trace().Len())
	for _, ft := range sys.Timings().All() {
		s += fmt.Sprintf("\n%+v", *ft)
	}
	for _, sp := range sys.Trace().All() {
		s += fmt.Sprintf("\n%+v", sp)
	}
	return s
}

// TestCloseKeepsResultsAndRefusesRun: Close is idempotent, changes nothing
// a finished system reports, and Run afterwards returns ErrClosed instead
// of waiting on goroutines that are gone.
func TestCloseKeepsResultsAndRefusesRun(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := closeProbe(t)
	want := observed(sys)
	if runtime.NumGoroutine() <= base {
		t.Fatal("finished system holds no goroutines; the test probes nothing")
	}
	sys.Close()
	if got := observed(sys); got != want {
		t.Errorf("Close changed the results:\n got %s\nwant %s", got, want)
	}
	sys.Close()
	if got := observed(sys); got != want {
		t.Errorf("second Close changed the results")
	}
	settledGoroutines(t, base)
	sys.Spawn(0, "late", func(th *dsmpm2.Thread) {})
	if err := sys.Run(); !errors.Is(err, dsmpm2.ErrClosed) {
		t.Errorf("Run after Close = %v, want ErrClosed", err)
	}
	settledGoroutines(t, base)
}

// TestUnrunSystemStartsNoGoroutines: building a system and spawning threads
// only records them; goroutines start when a Run dispatches them.
func TestUnrunSystemStartsNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	sys := dsmpm2.MustNew(dsmpm2.Config{Nodes: 8, Protocol: "hbrc_mw"})
	sys.Spawn(3, "never", func(th *dsmpm2.Thread) {})
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("built system started %d goroutines", n-base)
	}
	sys.Close()
	settledGoroutines(t, base)
}
