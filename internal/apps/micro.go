package apps

import (
	"fmt"

	"spasm/internal/app"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// Synthetic microbenchmark workloads with precisely controllable
// communication patterns.  They are not part of the paper's five-app
// suite (and are deliberately not in the registry, so suite-wide
// experiments are unaffected); they exist to validate the network models
// against known traffic — uniform random (the assumption behind the
// analytical models of Agarwal and Dally that the paper's section 2
// contrasts with simulation), hot-spot (where those models break), and
// nearest-neighbour (maximum communication locality, the g parameter's
// worst case).

// Pattern selects a microbenchmark traffic pattern.
type Pattern int

const (
	// UniformPattern: every reference targets a uniformly random
	// element of the shared array (any node, including self).
	UniformPattern Pattern = iota
	// HotSpotPattern: a fraction of references target one hot block;
	// the rest are uniform.
	HotSpotPattern
	// NeighborPattern: every reference targets the ID-adjacent
	// processor's partition.
	NeighborPattern
)

func (p Pattern) String() string {
	switch p {
	case UniformPattern:
		return "uniform"
	case HotSpotPattern:
		return "hotspot"
	case NeighborPattern:
		return "neighbor"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Micro is a synthetic traffic generator.
type Micro struct {
	Pattern Pattern
	// Refs is the number of references each processor issues.
	Refs int
	// Think is the compute time in cycles between references,
	// controlling offered load.
	Think int64
	// WritePct is the percentage of references that are writes.
	WritePct int
	// HotPct is the percentage of references hitting the hot block
	// (HotSpotPattern only).
	HotPct int
	Seed   int64

	arr *mem.Array
	hot *mem.Array
	ctx *app.Ctx
}

// NewMicro returns a microbenchmark at a reasonable default size.
func NewMicro(pattern Pattern, refs int, think int64, seed int64) *Micro {
	return &Micro{
		Pattern:  pattern,
		Refs:     refs,
		Think:    think,
		WritePct: 20,
		HotPct:   25,
		Seed:     seed,
	}
}

// Name implements app.Program.
func (m *Micro) Name() string { return "micro-" + m.Pattern.String() }

// Setup allocates a large blocked array (so partition owners are
// meaningful) and the hot block.
func (m *Micro) Setup(c *app.Ctx) {
	// 512 blocks per node, 4 elements per block: large enough that
	// random references rarely hit in a 64 KB cache.
	m.arr = c.Space.Alloc("micro.data", c.P*2048, 8, mem.Blocked)
	m.hot = c.Space.AllocAt("micro.hot", 4, 8, 0)
	m.ctx = c
}

// Start implements app.Stream: the stream the run and Check both draw.
// The cursor counts references drawn and holds the generator.
func (m *Micro) Start(id int) app.Cursor {
	return app.Cursor{State: uint64(newRefGen(m.Seed, id))}
}

// Next implements app.Stream.
func (m *Micro) Next(id int, cur app.Cursor) (app.Ref, app.Cursor, bool) {
	if cur.Pos >= m.Refs {
		return app.Ref{}, cur, false
	}
	g := refGen(cur.State)
	var addr mem.Addr
	switch {
	case m.Pattern == HotSpotPattern && g.below(100) < m.HotPct:
		addr = m.hot.At(g.below(m.hot.N))
	case m.Pattern == NeighborPattern:
		// The ID-adjacent processor's partition.
		lo, hi := m.arr.OwnerRange((id + 1) % m.ctx.P)
		addr = m.arr.At(lo + g.below(hi-lo))
	default:
		addr = m.arr.At(g.below(m.arr.N))
	}
	r := app.Ref{Think: sim.Cycles(m.Think), Addr: addr, Write: g.below(100) < m.WritePct}
	return r, app.Cursor{Pos: cur.Pos + 1, State: uint64(g)}, true
}

// Body implements app.Program.
func (m *Micro) Body(p *app.Proc) { app.Drive(m, p) }

// Check verifies every processor issued exactly its stream.
func (m *Micro) Check() error { return m.ctx.CheckStreams(m) }
