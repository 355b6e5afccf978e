package apps

import (
	"fmt"
	"math"

	"spasm/internal/app"
	"spasm/internal/mem"
	"spasm/internal/sparse"
)

// CG is the NAS conjugate-gradient kernel: iterations of sparse
// matrix-vector product, dot-product reductions, and vector updates on a
// random SPD matrix.  Rows are statically partitioned, but the reference
// pattern into the direction vector follows the matrix's sparsity — the
// data-dependent, compile-time-unknowable communication the paper
// contrasts with EP/FFT/IS (Figures 2, 15, 17, 19).
type CG struct {
	N     int // matrix order
	Extra int // random off-diagonals per row
	Iters int
	Seed  int64
	// Placement lays out the shared vectors and matrix values:
	// Blocked (default) aligns data with the static row partition;
	// Interleaved destroys that alignment, for the
	// placement-sensitivity study.
	Placement mem.Policy

	a *sparse.CSR

	// Shared arrays.
	aval *mem.Array // matrix values (and, by proxy, column indices)
	xv   *mem.Array // solution estimate
	rv   *mem.Array // residual
	pv   *mem.Array // search direction
	qv   *mem.Array // A*p
	acc  *mem.Array // per-iteration reduction accumulators
	lock *app.SpinLock
	bars []*app.Barrier

	// Host-side values.  The per-iteration dot products are indexed by
	// iteration so no processor ever needs to reset a shared scalar.
	x, r, pd, q, b []float64
	dotPQ, dotRR   []float64
	rho0           float64
	initialRes     float64
	ax             []float64 // Check's scratch: A x
}

// NewCG returns a CG instance at the given scale.
func NewCG(scale Scale, seed int64) app.Program {
	cg := &CG{Extra: 3, Iters: 4, Seed: seed}
	switch scale {
	case Tiny:
		cg.N = 64
	case Small:
		cg.N = 512
	default:
		cg.N = 1500
	}
	return cg
}

func init() {
	register("cg", NewCG)
}

// Name implements app.Program.
func (g *CG) Name() string { return "cg" }

// Setup generates the matrix, allocates the shared arrays blocked by
// row, and initializes the CG state: x = 0, r = p = b with b = A*ones.
func (g *CG) Setup(c *app.Ctx) {
	g.a = sparse.RandomSPD(g.N, g.Extra, g.Seed, c.Host)
	g.aval = c.Space.Alloc("cg.aval", g.a.NNZ(), 8, g.Placement)
	g.xv = c.Space.Alloc("cg.x", g.N, 8, g.Placement)
	g.rv = c.Space.Alloc("cg.r", g.N, 8, g.Placement)
	g.pv = c.Space.Alloc("cg.p", g.N, 8, g.Placement)
	g.qv = c.Space.Alloc("cg.q", g.N, 8, g.Placement)
	g.acc = c.Space.AllocAt("cg.acc", 2*g.Iters, 8, 0)
	g.lock = c.NewLock("cg.lock", 0)
	for i := 0; i < 3*g.Iters; i++ {
		g.bars = append(g.bars, c.NewBarrier(fmt.Sprintf("cg.bar%d", i), c.P, i%c.P))
	}

	ones := c.Host.Floats(g.N)
	for i := range ones {
		ones[i] = 1
	}
	g.b = c.Host.Floats(g.N)
	g.a.MulVec(ones, g.b)
	g.x = c.Host.Floats(g.N)
	g.r = c.Host.Floats(g.N)
	copy(g.r, g.b)
	g.pd = c.Host.Floats(g.N)
	copy(g.pd, g.b)
	g.q = c.Host.Floats(g.N)
	g.dotPQ = c.Host.Floats(g.Iters)
	g.dotRR = c.Host.Floats(g.Iters)
	g.ax = c.Host.Floats(g.N)
	for _, v := range g.r {
		g.rho0 += v * v
	}
	g.initialRes = math.Sqrt(g.rho0)
}

// Body implements app.Program.
func (g *CG) Body(p *app.Proc) {
	P := p.Ctx.P
	lo, hi := share(g.N, P, p.ID)
	rho := g.rho0

	for it := 0; it < g.Iters; it++ {
		// q = A p over this processor's rows: matrix entries are
		// local consecutive reads; p[col] is the irregular,
		// possibly-remote read stream dictated by the sparsity.
		p.Phase("matvec")
		for i := lo; i < hi; i++ {
			cols, vals := g.a.Row(i)
			rp := g.a.RowPtr[i]
			p.ReadRange(g.aval, rp, rp+len(cols))
			var s float64
			for k, j := range cols {
				p.ReadElem(g.pv, j)
				s += vals[k] * g.pd[j]
			}
			p.Compute(int64(len(cols)) * 2 * FlopCycles)
			g.q[i] = s
			p.WriteElem(g.qv, i)
		}

		// Reduce p·q: local partial, then a lock-guarded global add.
		p.Phase("reduce")
		var part float64
		for i := lo; i < hi; i++ {
			p.ReadElem(g.pv, i)
			p.ReadElem(g.qv, i)
			part += g.pd[i] * g.q[i]
		}
		p.Compute(int64(hi-lo) * 2 * FlopCycles)
		g.lock.Lock(p)
		p.ReadElem(g.acc, 2*it)
		g.dotPQ[it] += part
		p.WriteElem(g.acc, 2*it)
		g.lock.Unlock(p)
		g.bars[3*it].Arrive(p)
		p.ReadElem(g.acc, 2*it)
		alpha := rho / g.dotPQ[it]

		// x += alpha p; r -= alpha q; partial r·r — all local rows.
		p.Phase("update")
		part = 0
		for i := lo; i < hi; i++ {
			p.ReadElem(g.xv, i)
			p.ReadElem(g.pv, i)
			g.x[i] += alpha * g.pd[i]
			p.WriteElem(g.xv, i)
			p.ReadElem(g.rv, i)
			p.ReadElem(g.qv, i)
			g.r[i] -= alpha * g.q[i]
			p.WriteElem(g.rv, i)
			part += g.r[i] * g.r[i]
		}
		p.Compute(int64(hi-lo) * 6 * FlopCycles)
		g.lock.Lock(p)
		p.ReadElem(g.acc, 2*it+1)
		g.dotRR[it] += part
		p.WriteElem(g.acc, 2*it+1)
		g.lock.Unlock(p)
		g.bars[3*it+1].Arrive(p)
		p.ReadElem(g.acc, 2*it+1)
		beta := g.dotRR[it] / rho
		rho = g.dotRR[it]

		// p = r + beta p — local; barrier before the next mat-vec
		// reads the updated direction vector.
		for i := lo; i < hi; i++ {
			p.ReadElem(g.rv, i)
			p.ReadElem(g.pv, i)
			g.pd[i] = g.r[i] + beta*g.pd[i]
			p.WriteElem(g.pv, i)
		}
		p.Compute(int64(hi-lo) * 2 * FlopCycles)
		g.bars[3*it+2].Arrive(p)
	}
}

// Check verifies that the simulated iterations reduced the residual and
// that the internal residual vector matches b - A*x.
func (g *CG) Check() error {
	res := sparse.Residual(g.a, g.x, g.b, g.ax)
	if res >= g.initialRes/2 {
		return fmt.Errorf("cg: residual %g did not halve from %g", res, g.initialRes)
	}
	ax := g.ax
	for i := range ax {
		if math.Abs(g.b[i]-ax[i]-g.r[i]) > 1e-6*(1+math.Abs(g.r[i])) {
			return fmt.Errorf("cg: internal residual diverges from b-Ax at %d", i)
		}
	}
	return nil
}
