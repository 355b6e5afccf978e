package app

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/runpool"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// ErrRunTimeout marks a run aborted by RunControl.Timeout.  It wraps
// the engine's cooperative abort, so by the time it is returned every
// simulated-process goroutine has unwound: a stopped run leaks nothing.
var ErrRunTimeout = errors.New("run exceeded its wall-clock timeout")

// RunControl carries the failure-containment knob of one run.  The zero
// value means "run to completion" and costs nothing: the timer only
// exists when Timeout is set.
//
// Abort latency: a deadline already past when the event loop is about to
// start aborts the run before its first event.  One that lands mid-run
// fires the timer's callback, which needs a P: with an idle P that is
// immediate, but the event loop never enters the Go scheduler, so at
// GOMAXPROCS 1 the callback runs at the runtime's next forced preemption
// (every 10 ms of a goroutine's running).  The engine then aborts at its
// next event and ends every process, O(P) — a coroutine unwinds; a
// stackless process (see runOn) has nothing to: at p4096 on LogP the run
// returns 3-19 ms after the deadline, and TestAbortLatency holds that
// under 250 ms.
type RunControl struct {
	// Timeout bounds the run's wall-clock execution; past it the engine
	// is interrupted and the run fails with ErrRunTimeout.
	Timeout time.Duration
}

// Ctx is the shared context of one program run: the address space the
// program allocates into, the machine it runs on, and the statistics it
// accumulates.  Programs allocate their shared data and synchronization
// objects in Setup and keep references to them for Body.
type Ctx struct {
	P     int
	Space *mem.Space
	M     machine.Machine
	Run   *stats.Run
	Eng   *sim.Engine
	// Host is where a program takes its host arrays from: in Setup, the
	// values it computes and the scratch its Check needs.  A pooled run
	// gets its context's arena, so a rerun allocates none of them.
	Host *mem.Arena
	// Phases holds the per-phase overhead profile, populated when the
	// program marks phase boundaries with Proc.Phase.
	Phases *PhaseProfile
	// Issued is what each processor issued of a Stream (nil otherwise).
	// A pooled run's is its context's memory, like Host.
	Issued []Tally
	// at is M priced at issue when the run's processes are stackless (see
	// runOn), nil when a Stream's references go through M.Read and M.Write.
	at machine.PricedAtIssue
	// stream and feeds are a Stream run's program and its processors'
	// driver state (nil otherwise).
	stream Stream
	feeds  []feed
}

// Program is a parallel application.  Setup runs once (unsimulated) to
// allocate shared data; Body runs once per simulated processor, in
// parallel in simulated time.  Check, if non-nil, verifies the computed
// result after the run (the execution-driven applications compute real
// values in host memory alongside their simulated references).
type Program interface {
	// Name identifies the application ("ep", "is", "fft", "cg",
	// "cholesky", ...).
	Name() string
	// Setup allocates shared arrays and synchronization objects.
	Setup(c *Ctx)
	// Body is the per-processor program.
	Body(p *Proc)
	// Check validates the application's computed results; it returns
	// an error describing the first inconsistency.
	Check() error
}

// Result bundles a run's statistics with its configuration, the machine
// it ran on, and the address space it allocated (for post-run
// inspection: invariant checks, network counters, trace metadata).
type Result struct {
	Program string
	Config  machine.Config
	Stats   *stats.Run
	Machine machine.Machine
	Space   *mem.Space
	// Phases is the per-phase overhead profile (empty unless the
	// program marks phases).
	Phases *PhaseProfile
	// Par reports the parallel-execution outcome when Options.Workers
	// requested it (nil otherwise): whether the run actually executed in
	// windowed parallel mode, or why it fell back to the sequential
	// kernel.  Either way the statistics are identical.
	Par *sim.ParReport
}

// Instrument observes one run from the inside.  Attach is called after
// the machine is built but before any process is spawned; Finish is
// called once the simulation has completed successfully, with the final
// result.  Implementations (the telemetry profiler in internal/probe
// above all) hook the engine clock and the machine's network from
// Attach; everything an Instrument records must be a function of the
// run's configuration alone, so instrumented runs stay deterministic.
//
// keep is the run context's slot for the instrument's working state
// (runpool.Ctx.Instrument): what the instrument leaves there, the next
// run on the context finds, whatever the garbage collector did in
// between.  It is never nil; on a context's first run it holds nil.
type Instrument interface {
	Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine, keep *any)
	Finish(res *Result)
}

// Options selects how Execute runs a program.  The zero value is a
// fresh, unbounded, undecorated run.
type Options struct {
	// Pool supplies the run's context: the engine, address space, host
	// arena, a Stream's per-processor driver state, the Instrument's
	// tables and the machine.  A nil pool builds them fresh; a pool hands
	// out what an earlier run left (the machine reset in place), so a
	// sweep pays machine construction, the program's host arrays, the
	// run's feeds and the profiler's tables once per configuration.  The
	// Result's Machine and Space, the program's host values and Ctx.Issued
	// then reference pooled state, readable only until the pool hands the
	// context to another run; Stats and Phases are freshly allocated and
	// safe to keep.  A context whose run did not complete cleanly —
	// aborted, panicked, deadlocked, or failed its result check — is
	// Discarded rather than returned to the freelist: the pool's reset
	// invariants (docs/INTERNALS.md §9) only hold for state a run
	// finished with.
	Pool *runpool.Pool
	// Control bounds the run's wall-clock time.
	Control RunControl
	// Workers > 1 requests the conservative parallel mode (internal/sim):
	// processes overlap on up to Workers goroutines while shared state
	// commits in sequential dispatch order, so results are bit-identical
	// to a sequential run.  Only a stackless run (see runOn) goes
	// parallel; any other records sim.NotStackless in Result.Par and runs
	// sequentially.  0 or 1 means sequential.
	Workers int
	// Wrap, when non-nil, receives the configured machine and returns
	// the machine the program actually drives: the trace recorder's
	// decorator, or the slow-link variant's in-place fabric degradation.
	Wrap func(machine.Machine) machine.Machine
	// Instrument, when non-nil, observes the run from the inside.  It
	// sees the *underlying* machine (before Wrap), so a decorator like
	// the trace recorder does not hide the network from it.
	Instrument Instrument
}

// Execute is the one run entrypoint: it runs prog on a machine built
// from cfg with cfg.P processors, with every optional behaviour selected
// by opt, and returns the accumulated statistics.  The simulation is
// deterministic: identical programs and configurations produce identical
// results, and pooled, controlled, wrapped and instrumented runs are
// bit-for-bit identical to plain ones.  Every run takes its context from
// opt.Pool; a nil pool builds a fresh one and keeps nothing.
func Execute(prog Program, cfg machine.Config, opt Options) (*Result, error) {
	ctx, err := opt.Pool.Get(cfg)
	if err != nil {
		return nil, err
	}
	res, err := runOn(prog, cfg, ctx, opt)
	if err != nil {
		opt.Pool.Discard(ctx)
		return nil, err
	}
	opt.Pool.Put(ctx)
	return res, nil
}

// runOn is the run core: set up the program in rc's space, bind rc's
// machine (construction on the context's first run, an in-place reset on
// every later one — deferred until after Setup because the coherence
// directory is sized from the space footprint), spawn one process per
// node, and drive the event loop to completion.
//
// A process is a coroutine running Body, except where the run shows it
// need not be: a Stream, on a machine that as the program will drive it
// (decorators included) prices a reference at issue, gets stackless
// processes — their bodies the feeds of d, a cache line each — running
// the loop Drive runs from the same feeds: the same engine calls in the
// same order, so no result shows which one ran.  With Workers > 1 the
// engine's parallel mode overlaps those step functions; a run with
// coroutines asking for workers runs sequentially, and Result.Par says so.
//
// When ctl sets a timeout, a timer's callback interrupts the engine at
// the deadline; the resulting cooperative abort unwinds every process
// goroutine and the run fails with ErrRunTimeout.  A callback that has
// started is joined before runOn returns, so a late Interrupt can never
// poison a subsequent run on the same (pooled) engine.
func runOn(prog Program, cfg machine.Config, rc *runpool.Ctx, opt Options) (*Result, error) {
	wrap, inst, ctl, workers := opt.Wrap, opt.Instrument, opt.Control, opt.Workers
	eng, space := rc.Eng, rc.Space
	run := stats.NewRun(cfg.P)
	ctx := &Ctx{P: cfg.P, Space: space, Host: rc.Host, Run: run, Eng: eng, Phases: newPhaseProfile()}
	stream, _ := prog.(Stream)
	if stream != nil {
		d, _ := rc.Drivers.(*drivers)
		if d == nil {
			d = new(drivers)
			rc.Drivers = d
		}
		if d.feeds == nil {
			d.feeds, d.issued = make([]feed, cfg.P), make([]Tally, cfg.P)
		}
		ctx.stream, ctx.feeds, ctx.Issued = stream, d.feeds, d.issued
	}

	if err := setupSafely(prog, ctx); err != nil {
		return nil, err
	}

	m, err := rc.Bind()
	if err != nil {
		return nil, err
	}
	base := m // the underlying machine: instruments and the network
	// backend readout see it even when a decorator wraps the run.
	if inst != nil {
		inst.Attach(cfg, eng, run, m, &rc.Instrument)
	}
	if wrap != nil {
		m = wrap(m)
	}
	ctx.M = m

	prefix := prog.Name() + "/p"
	at, stackless := m.(machine.PricedAtIssue)
	stackless = stackless && stream != nil
	if stackless {
		ctx.at = at
	}
	for i := 0; i < cfg.P; i++ {
		i := i
		if stackless {
			f := ctx.feed(i, stream)
			f.sp = eng.SpawnStep(prefix, f)
			continue
		}
		eng.SpawnIndexed(prefix, func(sp *sim.Proc) {
			p := &Proc{ID: i, S: sp, M: m, St: &run.Procs[i], Ctx: ctx}
			prog.Body(p)
			p.closePhase()
			p.St.Finish = sp.Now()
		})
	}
	eng.SetParallel(workers) // the engine decides at Run time, and reports why not

	var timedOut atomic.Bool
	if ctl.Timeout > 0 {
		armed := time.Now()
		abort := func() {
			timedOut.Store(true)
			eng.Interrupt()
		}
		fired := make(chan struct{})
		timer := time.AfterFunc(ctl.Timeout, func() {
			abort()
			close(fired)
		})
		defer func() {
			if !timer.Stop() {
				<-fired
			}
		}()
		// The callback gets no CPU from the event loop itself (see
		// RunControl), so settle a deadline already past synchronously.
		if time.Since(armed) >= ctl.Timeout {
			abort()
		}
	}

	t0 := time.Now()
	if err := eng.Run(); err != nil {
		var ab *sim.AbortError
		if errors.As(err, &ab) && timedOut.Load() {
			err = fmt.Errorf("%w after %v (simulated time %v)", ErrRunTimeout, ctl.Timeout, ab.At)
		}
		return nil, fmt.Errorf("app: %s on %v/%s p=%d: %w",
			prog.Name(), cfg.Kind, cfg.Topology, cfg.P, err)
	}
	run.Wall = time.Since(t0)
	run.Complete()
	run.SimEvents = eng.Events
	run.Work.Switches = eng.Switches()
	if b, ok := base.(machine.Backend); ok {
		if net := b.Network(); net != nil {
			run.NetEvents = net.Stats().ModelEvents
		}
	}

	if err := prog.Check(); err != nil {
		return nil, fmt.Errorf("app: %s result check failed: %w", prog.Name(), err)
	}
	res := &Result{
		Program: prog.Name(),
		Config:  cfg,
		Stats:   run,
		Machine: m,
		Space:   space,
		Phases:  ctx.Phases,
	}
	if rep := eng.ParReport(); rep.Requested > 1 {
		res.Par = &rep
	}
	if inst != nil {
		inst.Finish(res)
	}
	return res, nil
}

// setupSafely runs prog.Setup, converting panics (bad sizes, invalid
// parameters) into errors so a misconfigured program fails its run
// rather than the whole process.
func setupSafely(prog Program, ctx *Ctx) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("app: %s setup panicked: %v", prog.Name(), r)
		}
	}()
	prog.Setup(ctx)
	return nil
}
