package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// waitGoroutines waits until the goroutine count is back to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines remain, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSequentialProcsShareOneCarrier: Spawn only records the body, and
// procs whose lifetimes do not overlap run on one carrier — a body that
// starts right after another finishes reuses it without a goroutine switch.
func TestSequentialProcsShareOneCarrier(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		e.Spawn("seq", Time(i)*Time(Microsecond), func(p *Proc) {
			order = append(order, i)
			p.Advance(Microsecond / 2)
		})
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("Spawn started %d goroutines before Run", n-base)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 50 || len(e.carriers) != 1 {
		t.Fatalf("ran %d bodies on %d carriers, want 50 on 1", len(order), len(e.carriers))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d", i, v)
		}
	}
	e.Close()
	waitGoroutines(t, base)
}

// TestCarriersTrackPeakConcurrency: the carrier count is the peak number of
// simultaneously live bodies, not the number of procs ever spawned.
func TestCarriersTrackPeakConcurrency(t *testing.T) {
	e := NewEngine(1)
	for round := 0; round < 10; round++ {
		for k := 0; k < 4; k++ {
			e.Spawn("w", Time(round)*Time(Millisecond), func(p *Proc) {
				p.Advance(Microsecond)
				p.Yield()
			})
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.carriers) != 4 {
		t.Fatalf("%d carriers for 40 procs 4 at a time, want 4", len(e.carriers))
	}
	e.Close()
}

// TestCloseUnwindsParkedBodies: Close retires daemons, killed procs and
// procs a Stop left mid-Advance. Their deferred calls run with the token
// held on their behalf, one body at a time, and may not block.
func TestCloseUnwindsParkedBodies(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var unwound []string
	deferCheck := func(p *Proc) {
		if e.Cur() != p {
			t.Errorf("%s unwound without the token (cur=%v)", p.Name(), curName(e))
		}
		unwound = append(unwound, p.Name())
	}
	var ch Chan
	d := e.Go("daemon", func(p *Proc) {
		defer deferCheck(p)
		ch.Recv(p)
	})
	victim := e.Go("victim", func(p *Proc) {
		defer deferCheck(p)
		p.Park("forever")
	})
	e.Go("sleeper", func(p *Proc) {
		defer deferCheck(p)
		defer p.Advance(Microsecond) // a blocking call during unwind unwinds too
		p.Advance(Second)
	})
	e.Go("killer", func(p *Proc) {
		p.Advance(Microsecond)
		victim.Kill()
		e.Stop()
	})
	d.MarkDaemon()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.nqueued == 0 {
		t.Fatal("Stop left no pending wake; the test probes nothing")
	}
	e.Close()
	want := []string{"daemon", "victim", "sleeper"}
	if len(unwound) != len(want) {
		t.Fatalf("unwound %v, want %v", unwound, want)
	}
	for i := range want {
		if unwound[i] != want[i] {
			t.Fatalf("unwound %v, want %v (carrier start order)", unwound, want)
		}
	}
	if e.Cur() != nil {
		t.Fatalf("Close left cur=%s", curName(e))
	}
	waitGoroutines(t, base)
}

// TestCloseIdempotentAndRunRefused: a second Close is a no-op and Run on a
// closed engine returns ErrClosed instead of hanging.
func TestCloseIdempotentAndRunRefused(t *testing.T) {
	e := NewEngine(1)
	e.Go("w", func(p *Proc) { p.Advance(Microsecond) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	now, events := e.Now(), e.Events()
	e.Close()
	e.Close()
	if e.Now() != now || e.Events() != events {
		t.Fatalf("Close moved the clock or event count")
	}
	e.Go("late", func(p *Proc) {})
	if err := e.Run(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// TestCloseAfterDeadlock: a deadlocked run's blocked procs are unwound too.
func TestCloseAfterDeadlock(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	var m Mutex
	e.Go("a", func(p *Proc) {
		m.Lock(p)
		p.Park("holding")
	})
	e.Go("b", func(p *Proc) { m.Lock(p) })
	var dl *DeadlockError
	if err := e.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want deadlock", err)
	}
	e.Close()
	waitGoroutines(t, base)
}

// TestSpawnExitSteadyState: once the carrier set is warm, spawning a proc
// and running it to completion costs the Proc allocation and no goroutine.
func TestSpawnExitSteadyState(t *testing.T) {
	e := NewEngine(1)
	body := func(p *Proc) { p.Advance(Microsecond) }
	spawnRun := func() {
		e.Go("child", body)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	spawnRun() // start the carrier
	base := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(200, spawnRun); allocs > 1 {
		t.Errorf("spawn+exit allocates %.1f objects, want <= 1", allocs)
	}
	if n := runtime.NumGoroutine(); n > base || len(e.carriers) != 1 {
		t.Errorf("goroutines %d (baseline %d), carriers %d: want no new goroutine",
			n, base, len(e.carriers))
	}
	e.Close()
}
