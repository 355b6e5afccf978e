package sim

import (
	"fmt"
	"strconv"
)

// Proc is a simulated process.  Its methods must be called only from
// within the process's own function (the engine guarantees one process
// runs at a time, so this is naturally the case).
//
// Each process carries a *local clock* that may run ahead of the global
// event clock: purely local work (instruction blocks, cache hits) is
// accumulated with Defer and folded into the next real event, exactly as
// an execution-driven simulator runs local instructions at native speed
// and schedules only the shared events.  Now always reports the local
// clock, so timing is unaffected; only the number of engine events (and
// hence the cost of simulation) changes.
type Proc struct {
	// What an event reads and writes comes first, in 64 bytes — a host
	// cache line's worth, and all of the Proc an event of a stackless
	// process touches (TestProcHotFieldsFitOneLine).
	eng *Engine
	// step is the body of a stackless process (SpawnStep): Run's loop
	// steps it in place.  nil for a coroutine.
	step       Stepper
	live       uint64 // seq of the one live event; any other event for p is stale
	lag        Time   // local clock advance not yet materialized
	sched      Time   // latest scheduled resumption (see Horizon)
	indexed    bool   // spawned by SpawnIndexed: the name is name + ID
	parked     bool
	terminated bool
	// resuming marks a coroutine suspended inside another process's next
	// (see block): it is beneath the running one, and cannot be resumed
	// until control comes back down to it.
	resuming bool

	ID int

	name string
	// The body of any other process runs as a coroutine (see launch): next
	// resumes it and returns when it yields or finishes; yield suspends it
	// back to whoever called next — Run's loop or a process that blocked.
	// Neither switch enters the Go scheduler.  Both are nil for a
	// stackless process.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name reports the name the process was spawned under.
func (p *Proc) Name() string {
	if p.indexed {
		return p.name + strconv.Itoa(p.ID)
	}
	return p.name
}

// Now reports the process's local simulated time (the global event time
// plus any deferred local work).  In parallel mode the time of the span's
// event — the process's latest scheduled resumption — stands in for the
// global clock: it is exactly what the sequential kernel's clock reads
// while this process runs.
func (p *Proc) Now() Time {
	if p.eng.par != nil {
		return p.sched + p.lag
	}
	return p.eng.now + p.lag
}

// Horizon reports how far the process has progressed along its own
// timeline: its local clock, or its latest scheduled resumption if that
// lies further out.  A process that flushed deferred work (or holds
// until a future wakeup) has already accounted the simulated time up to
// that event even though Now still reports the global clock — telemetry
// probes use Horizon to place such charges in the right sampling epoch.
func (p *Proc) Horizon() Time {
	if n := p.Now(); n > p.sched {
		return n
	}
	return p.sched
}

// block dispatches the next event and suspends until p's own comes up,
// with everything between the blocking call and the switch inline, one
// frame deep: that is the path a resumed coroutine returns along, and
// every return after a switch is mispredicted.
//
// When the next event belongs to p itself, advance returns with control
// still here and block returns immediately — no coroutine switch.  When
// it is another's, r, p resumes r itself — one switch, where a yield to
// Run's loop and a resume from it were two — unless r is suspended
// beneath p in this chain of resumptions (or the run is over): then p
// yields to whoever resumed it and the chain unwinds down to r.  When r
// hands control back, p carries on as Run's loop would: it dispatches
// for an r that terminated, and stops once the event is its own.  Only
// who resumes the owner changes, never which event is dispatched: that
// is advance's decision alone.
//
// If the run began aborting while p was blocked, the resumption is the
// process's last: block panics with abortSignal so the coroutine
// unwinds out of the application code and terminates (run's handler
// recognizes the signal), instead of running on inside a dead
// simulation.
// A stackless process has nothing to suspend: the panic names the call.
func (p *Proc) block(call string) {
	if p.yield == nil {
		panic(fmt.Sprintf("sim: stackless process %q called %s: a step function cannot block", p.Name(), call))
	}
	e := p.eng
	if !e.advance(p) {
		for r := e.running; r != p; r = e.running {
			if r == nil || r.resuming {
				p.yield(struct{}{}) // whoever resumes p does so for its event
				break
			}
			p.resuming = true
			if r.step != nil {
				r.steps()
			} else {
				e.switches += 2
				r.next()
			}
			p.resuming = false
			if r.terminated {
				e.advance(p)
			}
		}
	}
	if e.aborting {
		panic(abortSignal{})
	}
}

// Defer advances the process's local clock by d without scheduling an
// engine event.  The deferred time is folded into the next Hold,
// HoldUntil or FlushLag.  Use it for work that cannot interact with other
// processes.
func (p *Proc) Defer(d Time) {
	if d > 0 {
		p.lag += d
	}
}

// FlushLag materializes any deferred local time as a real event,
// advancing the global clock to the process's local clock.  Synchroniz-
// ation objects call it BEFORE inserting the process into a wait queue:
// a process must never sit in a waiter list while it still owes the
// engine a flush event, or a waker could try to Wake it mid-flush.
func (p *Proc) FlushLag() {
	if p.lag > 0 {
		d := p.lag
		p.lag = 0
		p.eng.schedule(p.eng.now+d, p)
		p.block("FlushLag")
	}
}

// Hold advances the process's local activity by d units of simulated
// time: the process sleeps and other processes run in the interim.  Any
// deferred local time is folded into the same event.  A non-positive d
// still flushes deferred time.
func (p *Proc) Hold(d Time) {
	if d < 0 {
		d = 0
	}
	if d+p.lag <= 0 {
		return
	}
	at := p.eng.now + p.lag + d
	p.lag = 0
	p.eng.schedule(at, p)
	p.block("Hold")
}

// HoldUntil sleeps until absolute local time t (no-op if t <= Now()).
func (p *Proc) HoldUntil(t Time) {
	if t <= p.Now() {
		return
	}
	p.lag = 0
	p.eng.schedule(t, p)
	p.block("HoldUntil")
}

// Park blocks the process indefinitely; some other process must Wake it.
// Callers that enqueue the process on a wait list must FlushLag before
// enqueueing (see Queue.Wait); Park itself must not flush, because by
// the time it runs the process may already be visible to wakers.
func (p *Proc) Park() {
	p.parked = true
	p.block("Park")
}

// Wake schedules a parked process to resume at the current simulated
// time.  Waking a process that is not parked panics: that is always a
// bookkeeping bug in a synchronization object — except while the run is
// aborting, when Wake is a no-op: the engine has already scheduled every
// parked process for its final unwind resumption, and deferred cleanup
// in unwinding application frames (lock releases, barrier exits) may
// legitimately try to wake peers that are no longer parked.
func (p *Proc) Wake() {
	e := p.eng
	if e.aborting {
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: Wake of non-parked process %q", p.Name()))
	}
	e.schedule(e.now, p)
}
