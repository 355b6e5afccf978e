package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// event is a scheduled resumption of a process.
type event struct {
	at  Time
	seq uint64 // creation order; breaks timestamp ties deterministically
	p   *Proc
}

// eventHeap is a concrete-typed min-heap of events ordered by (at, seq).
// Compared with container/heap it avoids the interface{} boxing
// allocation on every push and pop, and it clears popped slots so a
// drained queue does not pin *Proc values (and their coroutine stacks)
// in memory.
type eventHeap struct {
	s []event
}

func (h *eventHeap) len() int { return len(h.s) }

// less orders events by (at, seq): earliest first, FIFO within a tick.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	h.s = append(h.s, ev)
	s := h.s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := h.s
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // clear the vacated slot: no stale *Proc reference
	h.s = s[:n]
	// Sift the relocated element down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && less(&s[r], &s[l]) {
			m = r
		}
		if !less(&s[m], &s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// Engine is a deterministic discrete-event simulation kernel.  Create one
// with NewEngine, add processes with Spawn, then call Run.
//
// An Engine is not safe for concurrent use; all interaction happens either
// before Run or from within simulated processes (which the engine runs one
// at a time).
type Engine struct {
	now Time
	seq uint64

	// q is the active pending-event queue.  Small runs use the binary
	// heap; runs past the ladder thresholds use the ladder queue (see
	// queue.go).  Both pop in the same total (at, seq) order, so the
	// choice never affects results.  Both backing structures live on the
	// engine so pooled reuse reallocates neither.
	q    eventQueue
	heap eventHeap
	lad  ladderQueue

	nLive int // spawned but not yet terminated processes
	procs []*Proc
	// slabs backs the Procs of stackless processes (SpawnStep): one array
	// for many instead of an object each, every new one doubling the
	// total, kept across Reset.  free is the unused tail of
	// slabs[slabNext-1].
	slabs    [][]Proc
	slabNext int
	free     []Proc
	// running is the process whose event advance dispatched last: the one
	// resumed next — by Run's loop or by the process that blocked (see
	// Proc.block) — nil once the run is over.
	running *Proc
	// switches counts the coroutine switches of sequential dispatch, two
	// per resume (there, and back when it yields or finishes).
	switches uint64
	failure  error // first process panic, converted to a run error

	// stop is the cooperative abort flag, the only engine state that may
	// be touched from outside the simulation (see Interrupt).  It is
	// polled at every dispatch, so an interrupted run aborts within one
	// event.
	stop atomic.Bool
	// aborting marks the unwind phase: the run's outcome is decided and
	// every remaining process is being resumed one final time so it can
	// unwind (panic with abortSignal) and terminate.  Unwinding instead
	// of abandoning suspended coroutines is what makes failed runs —
	// panics, deadlocks, aborts — leak no goroutines.
	aborting bool
	abortErr error // the run result recorded when the unwind began

	// Events counts every event dispatched by Run.  It is the
	// simulator-cost metric used by the paper's "speed of simulation"
	// comparison (more simulated events = slower simulation).
	Events uint64

	// Tick, when non-nil, is invoked from the dispatch path every time
	// the simulated clock is about to advance to a strictly later value,
	// with the new time.  It runs before the advancing event dispatches,
	// so all state mutations recorded so far happened at or before the
	// previous clock value — the hook telemetry probes use to close
	// sampling epochs.  Tick must not call back into the engine.
	Tick func(now Time)

	// Parallel-mode configuration and per-run outcome (see SetParallel
	// and parallel.go).  par is non-nil exactly while a parallel Run is
	// in flight; everything else is per-run configuration or reporting,
	// cleared by Reset like Tick.
	pworkers int
	par      *parGate
	parRan   bool
	pfall    string // why a requested parallel run executed sequentially
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.q = &e.heap
	e.lad.topStart = minTime
	return e
}

// Reset returns the engine to its post-NewEngine state while keeping the
// backing arrays of the event queues, the process table and the slabs of
// stackless Procs, so a pooled engine re-runs without reallocating them.
// All retained slots are cleared so no *Proc (and hence no coroutine
// stack, no Stepper) from the previous run stays reachable; a slab's
// Procs are handed out again, so a *Proc of a stackless process is dead
// once its engine is Reset.  The per-run hook Tick is cleared too: it is
// configuration of one run, not of the engine.
//
// Reset must not be called while Run is in flight.  A failed run
// (deadlock, panic, Interrupt) unwinds every process
// coroutine before Run returns, so nothing from the old run survives —
// but its mid-flight machine and address-space state may, which is why
// pooled contexts whose run did not complete cleanly are discarded
// rather than reset (see internal/runpool.Pool.Discard).
func (e *Engine) Reset() {
	e.heap.reset()
	e.lad.reset()
	e.q = &e.heap
	for i := range e.procs {
		e.procs[i] = nil
	}
	e.procs = e.procs[:0]
	for _, slab := range e.slabs[:e.slabNext] {
		clear(slab)
	}
	e.slabNext, e.free = 0, nil
	e.now = 0
	e.seq = 0
	e.nLive = 0
	e.running = nil
	e.switches = 0
	e.failure = nil
	e.Events = 0
	e.Tick = nil
	e.stop.Store(false)
	e.aborting = false
	e.abortErr = nil
	// Parallel-mode configuration and outcome are per-run state.  par is
	// nil whenever Run is not in flight, but clear it anyway.
	e.pworkers = 0
	e.par = nil
	e.parRan = false
	e.pfall = ""
}

// Interrupt requests a cooperative abort of the in-flight Run.  It is
// the only Engine method safe to call from another goroutine while Run
// executes: it sets an atomic flag the dispatch loop polls, so the run
// aborts at the next event.  The engine then wakes every remaining
// process once so its coroutine can unwind and terminate — an aborted
// Run returns an *AbortError only after all process coroutines have
// finished, leaking none.  Interrupting an engine whose Run has already
// returned is a harmless no-op (Reset clears the flag).
func (e *Engine) Interrupt() { e.stop.Store(true) }

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Procs returns the processes spawned on the engine, in spawn order.
func (e *Engine) Procs() []*Proc { return e.procs }

// Switches reports the coroutine switches of the last run's sequential
// dispatch, two per resume; a run of stackless processes makes none.
func (e *Engine) Switches() uint64 { return e.switches }

// schedule enqueues a resumption of p at time at (>= now).  The new
// event's seq becomes p.live, which makes any earlier pending event for
// p stale at push time: advance recognizes it by the mismatch when it
// pops, so the queue never needs scanning.  A push at now sorts after
// every queued event at now, by seq.  A parallel window schedules in
// span instead, under its commit gate.
func (e *Engine) schedule(at Time, p *Proc) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", at, e.now))
	}
	if at > p.sched {
		p.sched = at
	}
	e.seq++
	p.live = e.seq
	e.q.push(event{at: at, seq: e.seq, p: p})
}

// advance dispatches the next runnable event and records its owner in
// e.running (nil when the run is over).  It is called by whoever holds
// control — a process that has just scheduled its own resumption or
// parked, or Run's loop (or a blocked process) to prime the first
// dispatch and after a process terminates — so engine state is only ever
// touched by one coroutine at a time.  It returns true when the
// dispatched event belongs to cur, in which case control simply stays on
// the calling process with no switch at all; otherwise the caller
// resumes e.running (see Proc.block) or returns to whoever resumed it.
func (e *Engine) advance(cur *Proc) bool {
	if !e.aborting && e.stop.Load() {
		e.beginAbort(&AbortError{At: e.now})
	}
	for {
		if e.q.len() == 0 {
			if !e.aborting && e.nLive > 0 {
				// Deadlock: record it, then unwind the blocked processes
				// instead of abandoning their coroutines.
				e.beginAbort(e.deadlock())
				continue
			}
			e.running = nil
			return false
		}
		ev := e.q.pop()
		if ev.seq != ev.p.live {
			continue // stale wakeup, superseded at push time
		}
		if ev.at > e.now {
			if e.Tick != nil && !e.aborting {
				e.Tick(ev.at)
			}
			e.now = ev.at
		}
		e.Events++
		ev.p.parked = false
		e.running = ev.p
		return ev.p == cur
	}
}

// beginAbort starts the unwind phase: the run's outcome (reason, or the
// first process failure) is fixed, and every parked process is scheduled
// one last wakeup so its coroutine can unwind.  Processes waiting on
// their own queued events need no help — dispatch reaches them — and
// once aborting is set, any resumed process panics with abortSignal
// inside block() before it can touch application state again.  The run
// ends when the queue drains with every process terminated.
func (e *Engine) beginAbort(reason error) {
	e.aborting = true
	if e.abortErr == nil && reason != nil {
		e.abortErr = reason
	}
	for _, p := range e.procs {
		if !p.terminated && p.parked {
			e.schedule(e.now, p)
		}
	}
}

// runResult classifies a finished run: the first process failure wins,
// then the recorded abort reason (interrupt or deadlock), then success.
func (e *Engine) runResult() error {
	if e.failure != nil {
		return e.failure
	}
	if e.abortErr != nil {
		return e.abortErr
	}
	if e.nLive > 0 {
		return e.deadlock()
	}
	return nil
}

// Spawn creates a simulated process executing fn and schedules it to start
// at the current simulation time.  It may be called before Run or from
// inside a running process.  The returned Proc is also passed to fn.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := e.admit(&Proc{name: name, eng: e})
	p.launch(fn)
	return p
}

// SpawnIndexed is Spawn for the members of a process array: the process
// is named prefix followed by its ID, formatted only if something asks
// (an error message), so spawning P processes formats no strings.
func (e *Engine) SpawnIndexed(prefix string, fn func(*Proc)) *Proc {
	p := e.Spawn(prefix, fn)
	p.indexed = true
	return p
}

// Stepper is the body of a stackless process: one whose control flow
// never depends on simulated time, so it needs no stack to suspend.
// Run's loop calls Step at each of the process's events; Step does local
// work (Defer) and returns when the process resumes — its local clock, if
// that is later — or done, which terminates it.  It must not block: Hold,
// HoldUntil, FlushLag, Park and all that is built on them panic.
// In a parallel window (SetParallel) Steps of different processes run at
// once: a Step must not spawn, reads the clock through p.Now, and touches
// what other processes share only inside p.Ordered.
type Stepper interface {
	Step(p *Proc) (wake Time, done bool)
}

// SpawnStep is SpawnIndexed for a stackless process: no coroutine, no
// goroutine, no switch, no object of its own — an event is one indirect
// call on Run's stack.
func (e *Engine) SpawnStep(prefix string, body Stepper) *Proc {
	if len(e.free) == 0 {
		if e.slabNext == len(e.slabs) {
			n := 0
			for _, slab := range e.slabs {
				n += len(slab)
			}
			e.slabs = append(e.slabs, make([]Proc, max(minSlab, n)))
		}
		e.free = e.slabs[e.slabNext]
		e.slabNext++
	}
	p := &e.free[0]
	e.free = e.free[1:]
	*p = Proc{name: prefix, eng: e, indexed: true, step: body}
	return e.admit(p)
}

// minSlab is the length of an engine's first slab of stackless Procs.
const minSlab = 64

// admit enters a new process in the table and schedules its first event.
func (e *Engine) admit(p *Proc) *Proc {
	p.ID = len(e.procs)
	e.procs = append(e.procs, p)
	e.nLive++
	e.schedule(e.now, p)
	return p
}

// run is the body of p's coroutine: fn, then the termination
// bookkeeping.  Dispatching the successor is left to whoever resumed p.
func (p *Proc) run(fn func(*Proc)) {
	defer func() { p.exit(recover()) }()
	if !p.eng.aborting {
		fn(p)
	}
}

// steps runs a stackless process from one of its events.  It makes the
// engine calls a coroutine looping over HoldUntil would — schedule, then
// advance — so seq, live, Events and the dispatch order evolve identically,
// and like block it stays in place while the next event is p's own.  An
// abort ends the process at its next event: there is nothing to unwind.
func (p *Proc) steps() {
	e := p.eng
	defer func() {
		if r := recover(); r != nil {
			p.exit(r)
		}
	}()
	for !e.aborting {
		wake, done := p.step.Step(p)
		if done {
			break
		}
		wake = max(wake, p.Now())
		p.lag = 0
		e.schedule(wake, p)
		if !e.advance(p) {
			return
		}
	}
	p.exit(nil)
}

// exit terminates a process whose body returned, or panicked with r.
func (p *Proc) exit(r any) {
	e := p.eng
	if r != nil {
		// Panics raised after the abort began are collateral of the
		// unwind (cleanup defers running against torn-down state),
		// not independent failures: recording them would mask the
		// abort's own error.
		if _, unwind := r.(abortSignal); !unwind && !e.aborting && e.failure == nil {
			e.failure = panicked(p, e.now, r)
		}
	}
	p.terminated = true
	p.live = 0 // any still-queued wakeup for p is now stale: no event has seq 0
	e.nLive--
	if e.failure != nil && !e.aborting {
		// A panic fails the run, but the remaining processes are
		// unwound — not abandoned — before Run reports it.
		e.beginAbort(nil)
	}
}

// panicked is the run error of a process that panicked with r at time at,
// wrapping r when it is an error (so errors.Is and errors.As see it).
func panicked(p *Proc, at Time, r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("sim: process %q panicked at %v: %w", p.Name(), at, err)
	}
	return fmt.Errorf("sim: process %q panicked at %v: %v", p.Name(), at, r)
}

// Run dispatches events until none remain.  It returns a *DeadlockError
// if processes are still alive (parked forever) when the event queue
// drains, and nil when every process has terminated.
//
// Run's loop is the bottom of a chain of resumptions: it resumes the
// owner of the dispatched event, which on blocking resumes the next
// owner itself (Proc.block), and so on; control comes back to the loop
// when the run is over, when its process finishes, or when a stackless
// one's next event is another's.  A cross-process event costs one
// coroutine switch into its owner, and each switch back down the chain
// undoes one of those — at most two an event, never through the Go
// scheduler.  A stackless owner is stepped in place, reading its Stepper
// out of the Proc — no switch, and no closure per process to call
// through.
func (e *Engine) Run() error {
	if e.q == &e.heap && len(e.procs) >= ladderProcs {
		e.escalate() // large-P run: start on the ladder queue
	}
	if e.pworkers > 1 {
		if why := e.parFallback(); why != "" {
			e.pfall = why // requested but incompatible: run sequentially
		} else {
			e.runParallel() // returns drained: the loop below finishes or unwinds
		}
	}
	e.advance(nil)
	for p := e.running; p != nil; p = e.running {
		if p.step != nil {
			p.steps()
		} else {
			e.switches += 2
			p.next()
		}
		if p.terminated {
			e.advance(nil) // a finished process dispatches no successor
		}
	}
	return e.runResult()
}

func (e *Engine) deadlock() *DeadlockError {
	var stuck []string
	for _, p := range e.procs {
		if !p.terminated {
			stuck = append(stuck, p.Name())
		}
	}
	sort.Strings(stuck)
	return &DeadlockError{At: e.now, Procs: stuck}
}

// DeadlockError reports that the event queue drained while processes were
// still blocked, i.e. the simulated program deadlocked.
type DeadlockError struct {
	At    Time     // simulation time at which progress stopped
	Procs []string // names of the blocked processes
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked processes: %s",
		d.At, strings.Join(d.Procs, ", "))
}

// AbortError reports that the run was aborted by Interrupt — the
// cooperative cancellation path used for wall-clock run timeouts and
// abandoned jobs.  By the time Run returns it, every process coroutine
// has unwound and finished.
type AbortError struct {
	// At is the simulated time at which the abort was observed.
	At Time
}

func (a *AbortError) Error() string {
	return fmt.Sprintf("sim: run aborted at %v", a.At)
}

// abortSignal is the panic value used to unwind process coroutines once
// a run is aborting.  It is recovered (and recognized) by the process's
// termination handler and never escapes the engine.
type abortSignal struct{}
