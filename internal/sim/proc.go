package sim

import "fmt"

// Proc is a simulated thread: a body that runs only while it holds the
// simulation token. Procs advance virtual time explicitly with Advance and
// block with Park; the engine resumes them in deterministic event order.
// A proc is backed by one of the engine's carrier goroutines from its first
// dispatch until its body returns (see carrier.go).
type Proc struct {
	eng    *Engine
	id     int
	name   string
	fn     func(p *Proc) // the body; cleared once it has returned
	c      *carrier      // nil until the first wake is dispatched
	dead   bool
	daemon bool

	// timedGen retires timed-wait deadline records: each armed deadline
	// captures the current value, and the wait bumps it on completion, so a
	// record still sitting in the calendar after its wait has ended is inert
	// when it fires (it can never unpark the proc from a later wait).
	timedGen uint64

	// Local is a free slot for the runtime layered above (PM2 stores the
	// owning thread descriptor here).
	Local interface{}
}

// Spawn creates a new simulated thread named name that will start executing
// fn at virtual time start (>= Now). fn runs in simulation context: it may
// call Advance, Park and the synchronization primitives in this package.
// Spawn only records the body; a carrier goroutine is bound when the first
// wake is dispatched.
func (e *Engine) Spawn(name string, start Time, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{
		eng:  e,
		id:   e.nextID,
		name: name,
		fn:   fn,
	}
	e.nlive++
	e.scheduleWake(start, p)
	return p
}

// Go spawns fn at the current virtual time. It is the common case of Spawn.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.Spawn(name, e.now, fn)
}

// MarkDaemon excludes p from run-completion and deadlock accounting. Use it
// for service procs (RPC dispatchers, monitors) that park forever by design:
// a simulation whose only remaining procs are daemons terminates normally.
func (p *Proc) MarkDaemon() {
	if !p.daemon && !p.dead {
		p.daemon = true
		p.eng.nlive--
	}
}

// Daemon reports whether p has been marked as a daemon.
func (p *Proc) Daemon() bool { return p.daemon }

// ID returns the proc's unique id (assigned in spawn order).
func (p *Proc) ID() int { return p.id }

// Name returns the proc's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// yield gives up the simulation token and blocks until woken. The yielding
// goroutine itself drives the event loop forward (see Engine.drive) before
// parking, so waking the next proc costs one goroutine switch instead of a
// bounce through a scheduler goroutine — and resuming this same proc (an
// uncontended Advance) costs none at all. A wake delivered by Close instead
// unwinds the body (see carrier.go).
func (p *Proc) yield() {
	e := p.eng
	c := p.c
	if e.closed {
		// A deferred call of a body Close is unwinding tried to block.
		c.unwind()
	}
	e.cur = nil
	switch e.drive(c) {
	case driveSelf:
		// Our own wake record was the next event: keep the token and
		// keep running.
		return
	case driveHanded:
		<-c.wake
	case driveDrained:
		// Queue drained with us holding the token: hand it back to Run,
		// then wait (a later Run phase may unpark us).
		e.park <- struct{}{}
		<-c.wake
	}
	if e.closed {
		c.unwind()
	}
}

// Advance consumes d of virtual time: the proc is suspended and resumes once
// the clock reaches Now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	p.checkRunning("Advance")
	if d < 0 {
		d = 0
	}
	e := p.eng
	e.scheduleWake(e.now.Add(d), p)
	p.yield()
}

// Yield gives other same-time events a chance to run before p continues.
func (p *Proc) Yield() { p.Advance(0) }

// Park blocks the proc indefinitely; some other party must call Unpark.
// reason is used in deadlock reports.
func (p *Proc) Park(reason string) {
	p.checkRunning("Park")
	p.eng.parked[p] = reason
	p.yield()
	delete(p.eng.parked, p)
}

// Kill fail-stops the proc: it never runs again. Pending wake records for it
// are skipped by the dispatcher, and the synchronization primitives skip dead
// procs when granting mutexes, semaphore units, signals or messages, so
// killing a parked proc cannot strand a resource on it. Kill must be called
// from engine context or another proc — a proc cannot kill itself (it would
// still hold the simulation token).
//
// A killed proc that had started keeps its carrier goroutine parked until
// Engine.Close unwinds it under the token.
func (p *Proc) Kill() {
	if p.dead {
		return
	}
	if p.eng.cur == p {
		panic(fmt.Sprintf("sim: proc %q killing itself", p.name))
	}
	p.dead = true
	if !p.daemon {
		p.eng.nlive--
	}
	delete(p.eng.parked, p)
}

// Dead reports whether the proc has finished or been killed.
func (p *Proc) Dead() bool { return p.dead }

// Unpark schedules p to resume at the current virtual time. It may be called
// from any simulation context (another proc or an engine event callback). It
// is an error to unpark a proc that is not parked; the kernel does not check
// this, so the synchronization primitives in this package are careful to
// maintain it.
func (p *Proc) Unpark() {
	e := p.eng
	e.scheduleWake(e.now, p)
}

// checkRunning panics if p is not the proc currently holding the token.
// Blocking operations from outside simulation context would hang the kernel,
// so this fails fast instead.
func (p *Proc) checkRunning(op string) {
	if p.eng.cur != p {
		panic(fmt.Sprintf("sim: %s called on proc %q which is not running (cur=%v)",
			op, p.name, curName(p.eng)))
	}
}

func curName(e *Engine) string {
	if e.cur == nil {
		return "<engine>"
	}
	return e.cur.name
}
