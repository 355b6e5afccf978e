package apps

import (
	"fmt"

	"spasm/internal/app"
	"spasm/internal/mem"
)

// Uniform is the uniform-random synthetic traffic workload: every
// processor issues a fixed quota of references, each targeting a
// uniformly random element of one blocked shared array, with a short
// compute burst between references.  It is the traffic assumption
// behind the analytical network models the paper's section 2 contrasts
// with simulation, packaged as an *extension* workload (NewExtended
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

	arr    *mem.Array
	issued []int
	sums   []uint64
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
	u.issued = make([]int, c.P)
	u.sums = make([]uint64, c.P)
}

// stream replays processor id's deterministic reference stream, calling
// visit for every (element index, isWrite) pair.  Body and Check use
// the same generator, which is what makes the run verifiable.
func (u *Uniform) stream(id int, visit func(elem int, write bool)) {
	g := newRefGen(u.Seed, id)
	for i := 0; i < u.Refs; i++ {
		visit(g.below(u.arr.N), g.below(100) < u.WritePct)
	}
}

// Body implements app.Program.
func (u *Uniform) Body(p *app.Proc) {
	issued, sum := 0, uint64(0)
	u.stream(p.ID, func(elem int, write bool) {
		p.Compute(u.Think)
		addr := u.arr.At(elem)
		if write {
			p.Write(addr)
		} else {
			p.Read(addr)
		}
		issued++
		sum += refSum(addr, write)
	})
	u.issued[p.ID], u.sums[p.ID] = issued, sum
}

// Check verifies every processor issued exactly its deterministic
// reference stream.
func (u *Uniform) Check() error {
	for id := range u.issued {
		if u.issued[id] != u.Refs {
			return fmt.Errorf("uniform: processor %d issued %d of %d references", id, u.issued[id], u.Refs)
		}
		var want uint64
		u.stream(id, func(elem int, write bool) { want += refSum(u.arr.At(elem), write) })
		if u.sums[id] != want {
			return fmt.Errorf("uniform: processor %d reference checksum %#x, want %#x", id, u.sums[id], want)
		}
	}
	return nil
}
