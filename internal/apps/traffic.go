package apps

import (
	"spasm/internal/app"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// The synthetic traffic workloads: every processor issues a fixed quota
// of references into one blocked shared array, each drawn by a
// destination rule, with a short compute burst between references.  They
// are the traffic behind the analytical network models the paper's
// section 2 contrasts with simulation — uniform random, the models'
// assumption; hot-spot, where they break; nearest-neighbour, maximum
// communication locality and the g parameter's worst case — packaged as
// extension workloads (Lookup by rule name), so large-P smoke runs and
// network-tier checks have cheap, deterministic drivers whose cost scales
// with P alone.
//
// A stream is a pure function of (seed, P, rule): Check replays each
// processor's stream on the host and compares an address-and-kind
// checksum, so a run whose traffic diverged from the deterministic
// schedule fails verification rather than merely producing different
// timing.

// A rule is one traffic pattern: its workload name, the shared array's
// elements per node, and the element a reference from processor id goes
// to.  dest draws from the generator it is handed and returns it advanced
// (held by value, it stays off the heap); the stream then draws the write
// coin.
type rule struct {
	name    string
	perNode int
	dest    func(t *traffic, id int, g refGen) (int, refGen)
}

var rules = [...]rule{
	// Any element.  256 per node (2 KB) regardless of scale: the workload
	// drives the network, not the memory system, so even a 1024-processor
	// instance sets up in a few megabytes.
	{"uniform", 256, func(t *traffic, _ int, g refGen) (int, refGen) {
		i := g.below(t.arr.N)
		return i, g
	}},
	// hotPct of references go to the array's first block, homed at node 0;
	// the rest to any element.  2048 per node (16 KB) here and below, large
	// enough that random references rarely hit in a 64 KB cache, so the
	// pattern rather than the cache shapes the traffic.
	{"hotspot", 2048, func(t *traffic, _ int, g refGen) (int, refGen) {
		n := t.arr.N
		if g.below(100) < hotPct {
			n = t.hot
		}
		i := g.below(n)
		return i, g
	}},
	// An element in the partition of processor id+1 (mod P).
	{"neighbor", 2048, func(t *traffic, id int, g refGen) (int, refGen) {
		lo, hi := t.arr.OwnerRange((id + 1) % t.ctx.P)
		i := lo + g.below(hi-lo)
		return i, g
	}},
}

const (
	// writePct is the percentage of references that are writes.
	writePct = 20
	// hotPct is the percentage of hotspot references that go to the hot block.
	hotPct = 25
)

func init() {
	for i := range rules {
		r := &rules[i]
		extended[r.name] = func(scale Scale, seed int64) app.Program {
			t := &traffic{rule: r, think: 8, seed: seed, refs: 2048}
			switch scale {
			case Tiny:
				t.refs = 128
			case Small:
				t.refs = 512
			}
			return t
		}
	}
}

// traffic is one run of a rule: the scale sets only the per-processor
// reference quota (128, 512, 2048), so simulated work grows linearly in
// P and scale.
type traffic struct {
	*rule
	refs  int   // references each processor issues
	think int64 // compute cycles before each reference
	seed  int64

	arr *mem.Array
	hot int // elements in arr's first block
	ctx *app.Ctx
}

// Name implements app.Program.
func (t *traffic) Name() string { return t.name }

// Setup allocates the shared array, blocked so partition owners are
// meaningful and a uniform element's home is uniform over the machine.
func (t *traffic) Setup(c *app.Ctx) {
	t.arr = c.Space.Alloc(t.name+".data", c.P*t.perNode, 8, mem.Blocked)
	t.hot = c.Space.BlockBytes() / 8
	t.ctx = c
}

// Start implements app.Stream: processor id's deterministic stream, the
// same for the run and for Check.  The cursor counts references drawn
// and holds the generator.
func (t *traffic) Start(id int) app.Cursor {
	return app.Cursor{State: uint64(newRefGen(t.seed, id))}
}

// Next implements app.Stream.
func (t *traffic) Next(id int, cur app.Cursor) (app.Ref, app.Cursor, bool) {
	if cur.Pos >= t.refs {
		return app.Ref{}, cur, false
	}
	i, g := t.dest(t, id, refGen(cur.State))
	addr := t.arr.At(i)
	r := app.Ref{Think: sim.Cycles(t.think), Addr: addr, Write: g.below(100) < writePct}
	return r, app.Cursor{Pos: cur.Pos + 1, State: uint64(g)}, true
}

// Body implements app.Program.
func (t *traffic) Body(p *app.Proc) { app.Drive(t, p) }

// Check verifies every processor issued exactly its stream.
func (t *traffic) Check() error { return t.ctx.CheckStreams(t) }
