package sim

// Conservative parallel execution mode.
//
// The sequential kernel dispatches events strictly in (at, seq) order and
// runs exactly one process at a time.  The parallel mode overlaps the
// host execution of stackless processes (SpawnStep): a span — one call of
// a process's Step, at one of its events — runs concurrently with others,
// and only its global sections (Ordered) and its commit — the next event
// it asks for, or its termination — serialize through an ordered commit
// gate.  Every process of a parallel run is stackless: one coroutine makes
// the run sequential, with Fallback NotStackless.
//
// Pending events stay in the engine's one queue, e.q.  Events are released
// from it in queue order, each as an incomplete span in a min-heap keyed
// like the queue, by (at, seq), while fewer than Workers spans are
// incomplete; Workers goroutines take released spans and call Step.  A
// commit schedules at most one event, later than its own span, and the
// span then retires, making room for one release.  So every pending event
// is later than every incomplete span: after a retirement the one event
// that may be earlier than some incomplete span is the queue's head, and
// it is released at once.  The oldest incomplete span is therefore the
// event the sequential kernel would dispatch next, and the gate grants it
// the commit right until it retires.  Because spans are granted in exactly
// the sequential dispatch order, every global section of a span is atomic
// with respect to other spans' sections, and a parallel run produces
// bit-identical results to the sequential kernel: same event count, same
// timestamps, same statistics, same RunDocs.  Workers shapes host
// concurrency only.
//
// A failure commits in order too.  A span's panic becomes the run's
// failure when the span is granted, and an Interrupt is noticed at a
// retirement; either stops the releases, and every span granted after
// that terminates its process, as the sequential kernel ends a stackless
// process at its first event after an abort.  Once no span is incomplete
// the engine clears parallel mode, the workers exit, and Run's ordinary
// loop finishes — or ends each process still queued — exactly as a
// sequential run does.

import (
	"sync"
	"sync/atomic"
)

// NotStackless is the ParReport.Fallback of a run with a coroutine process.
const NotStackless = "not-stackless"

// parGate is the ordered commit gate of one parallel run.  Its mutex
// protects all engine state during parallel execution: the event queue,
// the seq counter, the incomplete spans and the simulated clock.  Global
// sections do not hold the mutex while running — they hold the *grant*
// (being the oldest incomplete span), which the mutex only hands over.
type parGate struct {
	mu       sync.Mutex
	turn     sync.Cond            // broadcast when a span retires: the oldest changed
	spans    eventHeap            // incomplete spans by (at, seq); the minimum may commit
	ready    chan *Proc           // released spans no worker has taken yet
	holder   atomic.Pointer[Proc] // the process whose span holds the grant
	stopping bool                 // no further releases: drain toward sequential mode
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

// parFallback reports why the next Run cannot execute in parallel mode,
// or "" if it can.  The checks mirror the sequential dispatch features
// that windowed execution does not reproduce.
func (e *Engine) parFallback() string {
	for _, p := range e.procs {
		if p.step == nil {
			return NotStackless
		}
	}
	switch {
	case e.Tick != nil:
		return "tick-hook"
	case len(e.procs) < 2:
		return "single-process"
	}
	return ""
}

// ParReport returns the parallel-mode outcome of the last Run.
func (e *Engine) ParReport() ParReport {
	return ParReport{Requested: e.pworkers, Parallel: e.parRan, Fallback: e.pfall}
}

// runParallel executes the windowed parallel phase of a run: it releases
// the first spans and joins the workers, which take spans until the last
// one drains the engine back to sequential mode.  It returns with e.par
// nil; what is left (nothing, or processes to end) is the business of
// Run's loop.
func (e *Engine) runParallel() {
	g := &parGate{ready: make(chan *Proc, e.pworkers)}
	g.turn.L = &g.mu
	e.par = g
	e.parRan = true
	g.mu.Lock()
	e.parReleaseLocked()
	g.mu.Unlock()
	var workers sync.WaitGroup
	for range e.pworkers {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for p := range g.ready {
				e.span(p)
			}
		}()
	}
	workers.Wait()
}

// parReleaseLocked releases pending events as incomplete spans, in queue
// order, while fewer than Workers spans are incomplete.  Events are
// counted here, at release — the same set the sequential kernel counts at
// dispatch: a window's queue holds no stale event, since a stackless
// process is scheduled once at its start and then only by its commit.
func (e *Engine) parReleaseLocked() {
	g := e.par
	for !g.stopping && g.spans.len() < e.pworkers && e.q.len() > 0 {
		ev := e.q.pop()
		e.Events++
		g.spans.push(ev)
		g.ready <- ev.p // at most Workers incomplete spans: never blocks
	}
}

// span runs p's Step at the event released for it, then commits the
// outcome under the grant: the next event at the time Step asked for, or
// p's local clock if later — what steps schedules — or p's termination,
// when Step is done or panicked or the run is stopping.
func (e *Engine) span(p *Proc) {
	var wake Time
	var failed any
	done := true // unless Step returns
	func() {
		defer func() { failed = recover() }()
		wake, done = p.step.Step(p)
	}()
	p.enterGate()
	g := e.par
	g.mu.Lock()
	defer g.mu.Unlock()
	if failed != nil && e.failure == nil {
		// The span's time is the sequential kernel's clock when the
		// same panic unwinds there.
		e.failure = panicked(p, p.sched, failed)
		g.stopping = true
	}
	if done || g.stopping {
		p.terminated = true
		p.live = 0 // any still-queued wakeup for p is now stale
		e.nLive--
	} else {
		p.sched = max(wake, p.Now()) // never before the span: no past to check
		e.seq++
		p.live = e.seq
		e.q.push(event{at: p.sched, seq: e.seq, p: p})
	}
	p.lag = 0
	e.retireLocked()
}

// enterGate acquires the commit grant for p's current span.  The first
// global section of a span waits here until the span is the oldest
// incomplete one; once granted, the grant persists for the rest of the
// span (all its sections, through its commit), so a span is atomic with
// respect to other spans — see the file comment.  Outside a window it
// returns at once; the check is here, not in Ordered, so that Ordered
// and the closure passed to it inline at the call site.
func (p *Proc) enterGate() {
	e := p.eng
	g := e.par
	if g == nil || g.holder.Load() == p {
		return
	}
	g.mu.Lock()
	for g.spans.peek().p != p {
		g.turn.Wait()
	}
	g.holder.Store(p)
	// The oldest incomplete span's time is the sequential kernel's
	// clock; spans are granted in order, so it only advances.
	e.now = p.sched
	g.mu.Unlock()
}

// retireLocked retires the granted span — the oldest incomplete one —
// after its commit.  Usually the run stays in parallel mode and the
// retirement releases the next span; when it was the last incomplete
// span it drains the engine back to sequential mode instead and closes
// the workers' channel.  Whatever is still queued stays in e.q for Run's
// loop.
func (e *Engine) retireLocked() {
	g := e.par
	g.holder.Store(nil)
	g.spans.pop()
	if e.stop.Load() {
		g.stopping = true // Interrupt mid-window: stop releasing, drain
	}
	e.parReleaseLocked()
	if g.spans.len() > 0 {
		g.turn.Broadcast()
		return
	}
	e.par = nil // sequential mode from here on
	close(g.ready)
	if g.stopping {
		e.pfall = "drained-mid-flight"
		if e.failure != nil {
			e.beginAbort(nil) // the failure itself is the result
		} else {
			e.beginAbort(&AbortError{At: e.now})
		}
	}
}

// Ordered runs f as a global section of the calling process's current
// span: f executes with the commit grant held, serialized in (at, seq)
// dispatch order against every other span's sections.  In sequential mode
// it is exactly f().  What a parallel window runs — a reference stream on
// a machine priced at issue — shares one thing across processes, the
// machine, and prices each reference inside Ordered.
func (p *Proc) Ordered(f func()) {
	p.enterGate()
	f()
}
