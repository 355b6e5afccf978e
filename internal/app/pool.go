package app

import (
	"fmt"
	"sync"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// A Pool keeps run contexts — the *Ctx a program's Setup receives, with
// its engine, address space, host arena, a Stream's slabs, an
// instrument's tables and the machine — so sweep workloads pay topology
// route tables, fabric resource arrays, flattened cache-line arrays,
// directory chunk allocation, the program's host arrays and the
// profiler's tables once per configuration key instead of once per run.
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
//
// A Pool is safe for concurrent use; the contexts it hands out are not
// (each belongs to one caller between Get and Put).  A nil *Pool keeps
// nothing: its Get builds a fresh context every time, and its Put and
// Discard drop the context, so a fresh run is the first run of a context
// nobody keeps.
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

// defaultMaxIdle is the cap on idle contexts when NewPool is given none.
// A sweep worker typically cycles through a handful of configurations
// (kinds x topologies at one or two node counts), so a small cap captures
// the reuse while bounding retained memory.
const defaultMaxIdle = 16

// PoolStats is a snapshot of a pool's reuse counters.
type PoolStats struct {
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

// NewPool returns a pool retaining at most maxIdle idle contexts
// (defaultMaxIdle if maxIdle <= 0).
func NewPool(maxIdle int) *Pool {
	if maxIdle <= 0 {
		maxIdle = defaultMaxIdle
	}
	return &Pool{
		free:    make(map[machine.Config][]*Ctx),
		maxIdle: maxIdle,
	}
}

// Get returns a context for cfg, reusing an idle one when available.  A
// reused context comes back with its engine, address space, host arena
// and a Stream's slabs reset; its machine resets on the next bind.  The
// caller must return the context with Put when the run is over —
// including on error paths, since a Get always resets before reuse.
func (p *Pool) Get(cfg machine.Config) (*Ctx, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("app: pool Get with P=%d", cfg.P)
	}
	key := cfg.Canonical()
	if p == nil {
		return newCtx(key), nil
	}
	p.mu.Lock()
	if l := p.free[key]; len(l) > 0 {
		c := l[len(l)-1]
		l[len(l)-1] = nil
		p.free[key] = l[:len(l)-1]
		p.idle--
		p.hits++
		p.mu.Unlock()
		c.Eng.Reset()
		c.Space.Reset(c.P, c.Space.BlockBytes())
		c.Host.Reset()
		clear(c.feeds)
		clear(c.Issued)
		c.Issued = c.Issued[:0] // a Stream run takes it back to P
		return c, nil
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
		P:      key.P,
		Config: key,
		Eng:    sim.NewEngine(),
		Space:  mem.NewSpace(key.P, bb),
		Host:   new(mem.Arena),
	}
}

// bind returns the context's machine attached to its (set-up) address
// space: built with machine.New on the context's first run, reset in
// place with machine.Rebind on every later one.  Call it after the
// application's Setup has allocated, because machine construction sizes
// the coherence directory from the space footprint.
func (c *Ctx) bind() (machine.Machine, error) {
	if c.m == nil {
		var err error
		c.m, err = machine.New(c.Config, c.Space)
		return c.m, err
	}
	if err := machine.Rebind(c.m, c.Space); err != nil {
		return nil, err
	}
	return c.m, nil
}

// Put returns a context to the pool for reuse.  If the pool is at its
// idle cap the context is discarded instead, bounding retained memory.
// The context's state is left as the run finished it — any Result still
// referencing its Space or Machine, and the program's host values, stay
// readable until the context is next handed out, at which point Get and
// bind reset it.
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
	p.free[c.Config] = append(p.free[c.Config], c)
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
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Live: p.created - p.discarded, Discarded: p.discarded}
}
