// Package runpool pools the per-run construction state of a simulation —
// the discrete-event engine, the address space, the machine model, the
// host arena the program's values live in, and the profiler's tables —
// so sweep workloads pay topology route tables, fabric resource arrays,
// flattened cache-line arrays, directory chunk allocation, the program's
// host arrays and the profiler's epoch slab and link tables once per
// (configuration) key instead of once per run.
//
// A context is keyed by machine.Config.Canonical(): machine kind,
// topology, node count, cache geometry, costs, and network parameters.
// Memory *layout* is deliberately not part of the key — different
// applications lay out the shared space differently — which is why every
// layout-dependent memo (block home tables, directory home stamps, the
// directory chunk index) is re-stamped on reuse; see the Reset methods in
// internal/sim, internal/mem, internal/cache, internal/coherence,
// internal/network, and internal/logp, and the reset-invariants section
// of docs/INTERNALS.md.
//
// The pool is a bounded freelist rather than a sync.Pool: contexts are
// worth keeping across GC cycles (their value is precisely that they
// survive from run to run), and a hard idle cap bounds peak memory on
// sweeps that touch many configurations.  Per-run state of any layer
// that is sized by the configuration belongs in a context for the same
// reason: a sync.Pool of its own is emptied by every GC, and hands a
// table sized for one P to a run of another.
package runpool

import (
	"fmt"
	"sync"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// DefaultMaxIdle is the default cap on idle contexts retained per pool.
// A sweep worker typically cycles through a handful of configurations
// (kinds x topologies at one or two node counts), so a small cap captures
// the reuse while bounding retained memory.
const DefaultMaxIdle = 16

// Ctx is one pooled run context: an engine, an address space and a host
// arena ready for an application's Setup, the runner's per-processor
// driver state, an instrument's tables, and the machine that binds to
// the space afterwards.  Between Get and Put the context belongs
// exclusively to one caller; the Engine, Space, Host and Drivers it hands
// out are reset, and the instrument resets its own tables when it
// attaches, so a run on a pooled context is observationally identical to
// one on fresh state.
type Ctx struct {
	cfg        machine.Config // canonical
	blockBytes int

	Eng   *sim.Engine
	Space *mem.Space
	Host  *mem.Arena
	// Drivers is the runner's per-processor state for the context's P (a
	// stream run's feeds and tallies): nil until a run sets it, zeroed by
	// every Get that reuses the context.
	Drivers interface{ Reset() }
	// Instrument is the working state an app.Instrument keeps with the
	// context between runs (the profiler's epoch slab, link tables, chain
	// heads and snapshots, sized for the context's P): nil until a
	// profiled run sets it.  Get leaves it as the last run did; the
	// instrument resets what it reuses when it attaches.
	Instrument any

	m machine.Machine // nil until the first Bind
}

// Bind returns the context's machine attached to its (set-up) address
// space: built with machine.New on the context's first run, reset in
// place with machine.Rebind on every later one.  Call it after the
// application's Setup has allocated, because machine construction sizes
// the coherence directory from the space footprint.
func (c *Ctx) Bind() (machine.Machine, error) {
	if c.m == nil {
		var err error
		c.m, err = machine.New(c.cfg, c.Space)
		return c.m, err
	}
	if err := machine.Rebind(c.m, c.Space); err != nil {
		return nil, err
	}
	return c.m, nil
}

// Stats is a snapshot of a pool's reuse counters.
type Stats struct {
	// Hits counts Gets served by an idle context; Misses counts Gets
	// that had to construct one.
	Hits   uint64
	Misses uint64
	// Live is the number of contexts currently alive — idle in the pool
	// or checked out — i.e. constructed and not discarded.
	Live int
	// Discarded counts contexts dropped instead of retained: idle-cap
	// overflow on Put, plus explicit Discards after failed runs.
	Discarded int
}

// Pool is a bounded freelist of run contexts keyed by canonical machine
// configuration.  It is safe for concurrent use; the contexts it hands
// out are not (each belongs to one caller between Get and Put).  A nil
// *Pool keeps nothing: its Get builds a fresh context every time, and its
// Put and Discard drop the context, so a fresh run is the first run of a
// context nobody keeps.
type Pool struct {
	mu      sync.Mutex
	free    map[machine.Config][]*Ctx
	maxIdle int
	idle    int

	hits      uint64
	misses    uint64
	created   int
	discarded int
}

// New returns a pool retaining at most maxIdle idle contexts
// (DefaultMaxIdle if maxIdle <= 0).
func New(maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = DefaultMaxIdle
	}
	return &Pool{
		free:    make(map[machine.Config][]*Ctx),
		maxIdle: maxIdle,
	}
}

// Get returns a context for cfg, reusing an idle one when available.  A
// reused context comes back with its engine, address space, host arena
// and driver state reset; its machine resets on the next Bind.  The
// caller must return the context with Put when the run is over —
// including on error paths, since a Get always resets before reuse.
func (p *Pool) Get(cfg machine.Config) (*Ctx, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("runpool: Get with P=%d", cfg.P)
	}
	key := cfg.Canonical()
	if p == nil {
		return newCtx(key), nil
	}
	p.mu.Lock()
	if l := p.free[key]; len(l) > 0 {
		ctx := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[key] = l[:len(l)-1]
		p.idle--
		p.hits++
		p.mu.Unlock()
		ctx.Eng.Reset()
		ctx.Space.Reset(key.P, ctx.blockBytes)
		ctx.Host.Reset()
		if ctx.Drivers != nil {
			ctx.Drivers.Reset()
		}
		return ctx, nil
	}
	p.misses++
	p.created++
	p.mu.Unlock()
	return newCtx(key), nil
}

// newCtx builds a context for the canonical configuration key.
func newCtx(key machine.Config) *Ctx {
	bb := key.Cache.BlockBytes
	if bb == 0 {
		bb = mem.DefaultBlockBytes
	}
	return &Ctx{
		cfg:        key,
		blockBytes: bb,
		Eng:        sim.NewEngine(),
		Space:      mem.NewSpace(key.P, bb),
		Host:       new(mem.Arena),
	}
}

// Put returns a context to the pool for reuse.  If the pool is at its
// idle cap the context is discarded instead, bounding retained memory.
// The context's state is left as the run finished it — any Result still
// referencing its Space or Machine, and the program's host values, stay
// readable until the context is next handed out, at which point Get/Bind
// reset it.
func (p *Pool) Put(c *Ctx) {
	if p == nil || c == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle >= p.maxIdle {
		p.discarded++
		return
	}
	p.free[c.cfg] = append(p.free[c.cfg], c)
	p.idle++
}

// Discard drops a checked-out context permanently instead of returning
// it to the freelist.  It is the mandatory return path for a context
// whose run did not complete cleanly — above all an aborted (timed-out
// or canceled) run: the engine, space, and machine were left mid-flight,
// and the reset invariants of docs/INTERNALS.md §9 are only established
// for state a run finished with.  Discarding costs the next run of that
// configuration a fresh construction, which is exactly the price of not
// reasoning about half-finished state.
func (p *Pool) Discard(c *Ctx) {
	if p == nil || c == nil {
		return
	}
	p.mu.Lock()
	p.discarded++
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's reuse counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Hits: p.hits, Misses: p.misses, Live: p.created - p.discarded, Discarded: p.discarded}
}
