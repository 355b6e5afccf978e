package sim

// Conservative parallel execution mode.
//
// The sequential kernel dispatches events strictly in (at, seq) order and
// runs exactly one process at a time.  The parallel mode overlaps the
// host execution of processes that never wait on one another: a span —
// one process's execution from a resumption to its next Hold — runs
// concurrently with others, and only its global sections (Ordered: a
// network booking, a run total) and its final schedule serialize through
// an ordered commit gate.  A window runs processes that Defer, Hold,
// HoldUntil, Yield, FlushLag and call Ordered, nothing else: Park, Wake
// and Spawn inside one panic with ErrParallelWindow and fail the run.
//
// Pending events stay in the engine's one queue, e.q; a released event
// becomes an incomplete span in a min-heap keyed like the queue, by
// (at, seq).  The gate grants commit rights to the oldest incomplete span
// when no event still in the queue precedes it.  Because spans are
// granted in exactly the sequential dispatch order, and because a granted
// span stays the minimum until it completes (its own schedules produce
// strictly larger keys, and any older queued event is force-released and
// retired first — see parReleaseLocked), every global section of a span
// is atomic with respect to other spans' sections.  A parallel run
// therefore produces bit-identical results to the sequential kernel: same
// event count, same timestamps, same statistics, same RunDocs.  Workers
// bounds how many spans are in flight; it shapes host concurrency only.
//
// Vehicle and degeneration: processes are the same coroutines the
// sequential kernel drives; a parallel run adds one carrier goroutine per
// process (carry), which lends its thread to the coroutine for one span
// per release token.  When the run is interrupted, a process panics, or
// the event supply drains, the window closes — once no span is incomplete
// the engine clears parallel mode, the carriers are dismissed and joined,
// and Run's ordinary loop drains, unwinds, and terminates through the
// exact same abort machinery a sequential run uses.  That reuse is what
// makes mid-window Interrupts leak nothing.

import (
	"errors"
	"fmt"
	"sync"
)

// ErrParallelWindow is what a process that parks, wakes another or spawns
// one inside a parallel window panics with; the run fails with it.
var ErrParallelWindow = errors.New("inside a parallel window, which runs only processes that never park, wake or spawn")

// sequentialOnly panics with ErrParallelWindow inside a parallel window.
func (e *Engine) sequentialOnly(call string) {
	if e.par != nil {
		panic(fmt.Errorf("sim: %s %w", call, ErrParallelWindow))
	}
}

// parGate is the ordered commit gate of one parallel run.  The engine's
// parMu protects all engine state during parallel execution: the event
// queue, seq counter, in-flight spans, per-process release bookkeeping,
// and the simulated clock.  Global sections do not hold the mutex while
// running — they hold the *grant* (being the oldest incomplete span),
// which the mutex only hands over.
type parGate struct {
	spans    eventHeap // incomplete spans by (at, seq); the minimum may commit
	stopping bool      // no further releases: drain toward sequential mode
	carriers sync.WaitGroup
}

// parProc is a process's parallel-mode state, allocated when a parallel
// run adopts the process so that sequential runs carry none of it.
// at is the dispatch time of the current span; release carries release
// tokens to the carrier and gate the grant handoffs, both buffered so the
// sender never blocks under the gate mutex (the generation discipline
// allows at most one live token per process); granted/wantGate implement
// the gate's handoff protocol; drained marks the process whose span ended
// the parallel phase.
type parProc struct {
	at       Time
	release  chan struct{}
	gate     chan struct{}
	granted  bool
	wantGate bool
	drained  bool
}

// ParReport describes the outcome of the last Run's parallel mode.
type ParReport struct {
	Requested int    // workers requested via SetParallel
	Parallel  bool   // whether the run executed in parallel mode at all
	Fallback  string // why it did not, or why it degenerated mid-flight
}

// SetParallel arms the conservative parallel mode for the next Run:
// workers bounds span concurrency.  With workers <= 1 the engine runs
// sequentially.  Reset clears the setting.
//
// Parallel runs are bit-identical to sequential runs; Run falls back to
// the sequential kernel whenever a configuration is incompatible with
// windowed execution (see ParReport.Fallback).
func (e *Engine) SetParallel(workers int) { e.pworkers = workers }

// ForceSequential makes the next Run use the sequential kernel even if
// SetParallel was called, recording reason in ParReport.Fallback.  The
// runner uses it for every run whose processes may park, wake or spawn,
// which a window does not run.
func (e *Engine) ForceSequential(reason string) { e.pforce = reason }

// parFallback reports why the next Run cannot execute in parallel mode,
// or "" if it can.  The checks mirror the sequential dispatch features
// that windowed execution does not reproduce.
func (e *Engine) parFallback() string {
	switch {
	case e.pforce != "":
		return e.pforce
	case e.Tick != nil:
		return "tick-hook"
	case e.MaxTime > 0:
		return "time-limit-watchdog"
	case len(e.procs) < 2:
		return "single-process"
	}
	return ""
}

// WillRunParallel reports whether the next Run would execute in parallel
// mode as currently configured.
func (e *Engine) WillRunParallel() bool {
	return e.pworkers > 1 && e.parFallback() == ""
}

// ParReport returns the parallel-mode outcome of the last Run.
func (e *Engine) ParReport() ParReport {
	return ParReport{Requested: e.pworkers, Parallel: e.parRan, Fallback: e.pfall}
}

// runParallel executes the windowed parallel phase of a run: it adopts
// every process, releases the first spans and joins the carriers, which
// dispatch among themselves — a retiring span releases the next — until
// the last one drains the engine back to sequential mode.  It returns
// with e.par nil; what is left (nothing, a deadlock, an unwind) is the
// business of Run's loop.
func (e *Engine) runParallel() {
	g := &parGate{}
	e.par = g
	for _, p := range e.procs {
		e.parAdopt(p)
	}
	e.parRan = true
	// Events scheduled before Run (process starts) sit in the sequential
	// same-timestamp FIFO; a window schedules and releases through e.q
	// only, so move them there.  Queue order on equal timestamps is seq
	// order — the FIFO order — so dispatch order is unchanged.
	for i := e.nowHead; i < len(e.nowQ); i++ {
		e.q.push(e.nowQ[i])
		e.nowQ[i] = event{}
	}
	e.nowQ = e.nowQ[:0]
	e.nowHead = 0
	e.parMu.Lock()
	e.parReleaseLocked()
	e.parMu.Unlock()
	g.carriers.Wait()
}

// parAdopt gives p its parallel-mode state and starts its carrier.
func (e *Engine) parAdopt(p *Proc) {
	p.px = &parProc{
		release: make(chan struct{}, 1),
		gate:    make(chan struct{}, 1),
	}
	e.par.carriers.Add(1)
	go e.carry(p, e.par)
}

// carry is p's carrier: for each release token it resumes p's coroutine,
// which runs one span and yields back from parRetire (or finishes).  It
// exits when p has terminated or the release channel is closed — by the
// carrier of the span that drained the run: with no span incomplete no
// token is in flight and no process is running, so e.procs is stable and
// each channel is closed exactly once.
func (e *Engine) carry(p *Proc, g *parGate) {
	defer g.carriers.Done()
	for range p.px.release {
		p.next()
		if p.px.drained {
			for _, q := range e.procs {
				close(q.px.release)
			}
		}
		if p.terminated || p.px.drained {
			return
		}
	}
}

// parHead returns the oldest live pending event, or nil.  Stale events
// surfacing at the head are dropped: their generation no longer matches,
// so the sequential kernel would skip them at dispatch — the same
// semantics.  Callers hold parMu (or run before the window opens).
func (e *Engine) parHead() *event {
	for {
		ev := e.q.peek()
		if ev == nil || ev.gen == ev.p.gen {
			return ev
		}
		e.q.pop() // stale wakeup, superseded at push time
	}
}

// parScheduleLocked is schedule's core under the gate mutex: same
// generation discipline as the sequential path, but always through e.q —
// the nowQ fast path is a sequential-only optimization.
func (e *Engine) parScheduleLocked(at Time, p *Proc) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: %v < now %v", at, e.now))
	}
	if at > p.sched {
		p.sched = at
	}
	e.seq++
	p.gen++
	e.q.push(event{at: at, seq: e.seq, gen: p.gen, p: p})
}

// parReleaseLocked releases pending events as incomplete spans, each with
// a release token for its carrier, while one of three rules holds, in
// priority order:
//
//  1. Forced: an event older than the oldest incomplete span is released
//     regardless of capacity — the gate cannot grant that span until the
//     older event's span exists and retires, so withholding it would
//     deadlock.
//  2. Idle: with nothing in flight the head event is released; it is the
//     global minimum.
//  3. Capacity: otherwise events are released while fewer than Workers
//     spans are in flight.
//
// Events are counted here, at release — the same live set the sequential
// kernel counts at dispatch.
func (e *Engine) parReleaseLocked() {
	g := e.par
	if g.stopping {
		return
	}
	for {
		top := e.parHead()
		if top == nil {
			return
		}
		if n := g.spans.len(); n > 0 && n >= e.pworkers && !less(top, g.spans.peek()) {
			return
		}
		ev := e.q.pop()
		e.Events++
		q := ev.p
		q.parked = false
		q.px.at = ev.at
		g.spans.push(ev)
		q.px.release <- struct{}{} // buffered: the carrier may not be receiving yet
	}
}

// parGrantable reports whether p's span may hold the commit grant: it is
// the oldest incomplete span and no event still pending in e.q precedes
// it.  (A preceding pending event would dispatch first in the sequential
// order; parReleaseLocked force-releases such events, so the condition is
// eventually satisfied.)  While draining, pending order no longer matters
// — the run's outcome is already decided and the remaining spans only
// need to retire.
func (e *Engine) parGrantable(p *Proc) bool {
	g := e.par
	min := g.spans.peek()
	if min == nil || min.p != p {
		return false
	}
	if g.stopping {
		return true
	}
	top := e.parHead()
	return top == nil || !less(top, min)
}

// parSignalLocked hands the gate to the oldest incomplete span if it is
// waiting and grantable.  Called after every state change that can make a
// waiter grantable: a span retiring, or stale events popped off the queue.
func (e *Engine) parSignalLocked() {
	min := e.par.spans.peek()
	if min == nil {
		return
	}
	p := min.p
	if !p.px.wantGate || !e.parGrantable(p) {
		return
	}
	p.px.wantGate = false
	p.px.gate <- struct{}{} // buffered(1); at most one token outstanding
}

// enterGate acquires the commit grant for p's current span.  The first
// global section of a span waits here until the span is the oldest
// incomplete one; once granted, the grant persists for the rest of the
// span (all its sections, through retirement), so a multi-section span is
// atomic with respect to other spans — see the file comment.
func (p *Proc) enterGate() {
	if p.px.granted {
		return
	}
	e := p.eng
	e.parMu.Lock()
	for {
		// Force out any queued event older than us (rule 1 of
		// parReleaseLocked); its span must retire before our grant.
		e.parReleaseLocked()
		if e.parGrantable(p) {
			break
		}
		// Popping stale events above may have unblocked a different
		// waiter even though we are still obstructed.
		e.parSignalLocked()
		p.px.wantGate = true
		e.parMu.Unlock()
		<-p.px.gate
		e.parMu.Lock()
	}
	p.px.granted = true
	if p.px.at > e.now {
		// The oldest incomplete span's dispatch time is the sequential
		// kernel's clock; it advances monotonically across grants.
		e.now = p.px.at
	}
	e.parMu.Unlock()
}

// parEnd retires p's current span — the oldest incomplete one, since
// spans retire through the gate — after its final state transition has
// committed.  Usually the run stays in parallel mode and the retirement
// releases more spans; when it was the last incomplete span of a stopping
// or exhausted run, it drains the engine back to sequential mode instead
// and flags p, whose carrier then dismisses the others.  Whatever is
// still queued stays in e.q for Run's loop.
func (p *Proc) parEnd() {
	e := p.eng
	e.parMu.Lock()
	defer e.parMu.Unlock()
	g := e.par
	p.px.granted = false
	g.spans.pop()
	if e.stop.Load() {
		g.stopping = true // Interrupt mid-window: stop releasing, drain
	}
	e.parReleaseLocked()
	if g.spans.len() > 0 || (!g.stopping && e.q.len() > 0) {
		e.parSignalLocked()
		return
	}
	e.par = nil // sequential mode from here on
	p.px.drained = true
	if g.stopping {
		e.pfall = "drained-mid-flight"
		if e.failure != nil {
			e.beginAbort(nil) // the failure itself is the result
		} else {
			e.beginAbort(&AbortError{At: e.now})
		}
	}
}

// parRetire ends the current span and suspends p until its carrier
// resumes it on the next release — or, if the run has drained out of
// parallel mode meanwhile, Run's loop does, typically to unwind.
func (p *Proc) parRetire() {
	p.parEnd()
	p.yield(struct{}{})
	if p.eng.aborting {
		panic(abortSignal{})
	}
}

// parHold completes the current span with p's next resumption scheduled
// at `at`.  Mirrors the schedule+block sequence of the sequential Hold
// family.
func (p *Proc) parHold(at Time) {
	e := p.eng
	p.enterGate() // scheduling mutates the shared heap: a global section
	e.parMu.Lock()
	e.parScheduleLocked(at, p)
	e.parMu.Unlock()
	p.parRetire()
}

// parFail records a real process panic observed in parallel mode and
// closes the window.  The failing span still retires through the gate in
// order, so the bookkeeping below stays single-writer.
func (e *Engine) parFail(p *Proc, r any) {
	e.parMu.Lock()
	if e.failure == nil {
		// The span's dispatch time is exactly the sequential kernel's
		// clock when the same panic unwinds there.
		e.failure = panicked(p, p.px.at, r)
	}
	e.par.stopping = true
	e.parMu.Unlock()
}

// parTerminate is the parallel-mode counterpart of run's sequential
// termination handler: the process's body has returned (or panicked), and
// its final span retires through the gate so termination bookkeeping
// lands in sequential order.  The coroutine then finishes; its carrier
// sees p.terminated (or the drain flag) and exits.
func (e *Engine) parTerminate(p *Proc, r any) {
	if r != nil {
		e.parFail(p, r)
	}
	p.enterGate() // termination is the span's final global section
	e.parMu.Lock()
	p.terminated = true
	p.gen++ // any still-queued wakeup for p is now stale
	e.nLive--
	e.parMu.Unlock()
	p.parEnd()
}

// Ordered runs f as a global section of the calling process's current
// span: f executes with the commit grant held, serialized in (at, seq)
// dispatch order against every other span's sections.  In sequential mode
// it is exactly f().  What a parallel window runs — a reference stream
// on LogP — touches cross-process state in two places, and both use it:
// the LogP round trip and the runner's run totals.
func (p *Proc) Ordered(f func()) {
	if p.eng.par == nil {
		f()
		return
	}
	p.enterGate()
	f()
}
