package sim

import "errors"

// Carrier goroutines. A proc is not a goroutine of its own: each engine
// keeps a set of carrier goroutines and runs proc bodies on them, the way
// Marcel reuses cached thread stacks so that creating a thread is cheap.
//
//   - Spawn only records the body. The first time one of the proc's wake
//     records is dispatched, drive binds it to the most recently idled
//     carrier (LIFO, so the stack that is warmest is reused) or starts a new
//     one.
//   - When a body returns, its carrier goes back on the idle list before it
//     drives the loop on. drive's self-check compares carriers, so if the
//     next wake belongs to a proc that has not started yet, it binds to this
//     same carrier and runs without a goroutine switch.
//   - Close retires every carrier between Runs. Idle carriers exit. Parked
//     ones (daemons, killed procs, procs left blocked by Stop or a deadlock)
//     are woken one at a time while the closer holds the token; each unwinds
//     its body with a sentinel panic that the carrier recovers, then hands
//     the token back.
//
// Binding happens outside event ordering: it touches no clock, sequence
// number or random stream, so which goroutine runs a proc can never change
// the schedule.

// ErrClosed is returned by Run on an engine that has been closed.
var ErrClosed = errors.New("sim: engine closed")

// carrier is one goroutine that runs proc bodies, one at a time.
type carrier struct {
	eng  *Engine
	wake chan struct{}
	p    *Proc // the bound proc; nil while idle

	// unwinding marks the carrier's body as being torn down by Close, so
	// the recover at the carrier's top knows the panic is its own.
	unwinding bool
}

// unwindSentinel is the panic value Close unwinds a parked body with.
type unwindSentinel struct{}

// bind gives p a carrier: the most recently idled one, or a new one whose
// goroutine starts parked on its wake channel.
func (e *Engine) bind(p *Proc) *carrier {
	var c *carrier
	if n := len(e.idle); n > 0 {
		c = e.idle[n-1]
		e.idle[n-1] = nil
		e.idle = e.idle[:n-1]
	} else {
		c = &carrier{eng: e, wake: make(chan struct{})}
		e.carriers = append(e.carriers, c)
		go c.run()
	}
	c.p, p.c = p, c
	return c
}

// run is the carrier goroutine: run the bound body, return to the idle list,
// drive the loop on, and wait for the next binding. A wake that finds no
// bound proc comes from Close.
func (c *carrier) run() {
	e := c.eng
	defer func() {
		if c.unwinding {
			if r := recover(); r != (unwindSentinel{}) {
				panic(r)
			}
			e.park <- struct{}{}
		}
	}()
	<-c.wake
	for c.p != nil {
		p := c.p
		p.fn(p)
		p.fn = nil
		p.dead = true
		if !p.daemon {
			e.nlive--
		}
		p.c, c.p = nil, nil
		e.idle = append(e.idle, c)
		// Final yield of this body: dispatch the remaining events. If the
		// queue drained here, pass the token back to Run.
		e.cur = nil
		switch e.drive(c) {
		case driveSelf:
			// The next wake bound a new proc to this carrier.
		case driveHanded:
			<-c.wake
		case driveDrained:
			e.park <- struct{}{}
			<-c.wake
		}
	}
	e.park <- struct{}{}
}

// unwind tears down the body running on c; see Close.
func (c *carrier) unwind() {
	c.unwinding = true
	panic(unwindSentinel{})
}

// Close retires every carrier goroutine, releasing the stacks and the
// memory their bodies keep reachable. Call it from the goroutine that owns
// the engine, between Runs. Bodies still parked are unwound: their deferred
// calls run, one body at a time, with the token held on their behalf. Close
// is idempotent; Run on a closed engine returns ErrClosed.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.cur != nil {
		panic("sim: Close called while proc " + e.cur.name + " holds the simulation token")
	}
	e.closed = true
	for _, c := range e.carriers {
		e.cur = c.p
		c.wake <- struct{}{}
		<-e.park
	}
	e.cur = nil
	e.carriers, e.idle = nil, nil
}
