package apps

import (
	"spasm/internal/app"
	"spasm/internal/mem"
	"spasm/internal/sim"
)

// Uniform is the uniform-random synthetic traffic workload: every
// processor issues a fixed quota of references, each targeting a
// uniformly random element of one blocked shared array, with a short
// compute burst between references.  It is the traffic assumption
// behind the analytical network models the paper's section 2 contrasts
// with simulation, packaged as an *extension* workload (Lookup
// under the name "uniform") so large-P smoke runs and network-tier
// benchmarks have a cheap, deterministic driver whose cost scales with
// P alone — the shared array holds a fixed 256 elements per node, so
// even a 1024-processor instance sets up in a few megabytes.
//
// The reference stream is a pure function of (Seed, P, array size):
// Check replays each processor's stream on the host and compares
// an address-and-kind checksum, so a run whose traffic diverged from
// the deterministic schedule fails verification rather than merely
// producing different timing.
type Uniform struct {
	// Refs is the number of references each processor issues.
	Refs int
	// Think is the compute time in cycles between references.
	Think int64
	// WritePct is the percentage of references that are writes.
	WritePct int
	Seed     int64

	arr *mem.Array
	ctx *app.Ctx
}

// uniformElemsPerNode fixes the shared-array footprint at 256 elements
// (2 KB) per node regardless of scale: the workload exists to drive the
// network, not the memory system.
const uniformElemsPerNode = 256

// NewUniform returns the uniform-traffic workload at the given scale:
// the scale sets only the per-processor reference quota (128, 512,
// 2048), so simulated work grows linearly in P and scale.
func NewUniform(scale Scale, seed int64) app.Program {
	u := &Uniform{Think: 8, WritePct: 20, Seed: seed}
	switch scale {
	case Tiny:
		u.Refs = 128
	case Small:
		u.Refs = 512
	default:
		u.Refs = 2048
	}
	return u
}

// Name implements app.Program.
func (u *Uniform) Name() string { return "uniform" }

// Setup allocates the shared target array, blocked so a reference's
// home node is uniform over the machine.
func (u *Uniform) Setup(c *app.Ctx) {
	u.arr = c.Space.Alloc("uniform.data", c.P*uniformElemsPerNode, 8, mem.Blocked)
	u.ctx = c
}

// Start implements app.Stream: processor id's deterministic stream, the
// same for the run and for Check, which makes the run verifiable.  The
// cursor counts references drawn and holds the generator.
func (u *Uniform) Start(id int) app.Cursor {
	return app.Cursor{State: uint64(newRefGen(u.Seed, id))}
}

// Next implements app.Stream.
func (u *Uniform) Next(_ int, cur app.Cursor) (app.Ref, app.Cursor, bool) {
	if cur.Pos >= u.Refs {
		return app.Ref{}, cur, false
	}
	g := refGen(cur.State)
	addr := u.arr.At(g.below(u.arr.N))
	r := app.Ref{Think: sim.Cycles(u.Think), Addr: addr, Write: g.below(100) < u.WritePct}
	return r, app.Cursor{Pos: cur.Pos + 1, State: uint64(g)}, true
}

// Body implements app.Program.
func (u *Uniform) Body(p *app.Proc) { app.Drive(u, p) }

// Check verifies every processor issued exactly its stream.
func (u *Uniform) Check() error { return u.ctx.CheckStreams(u) }
