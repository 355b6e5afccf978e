package apps

import (
	"fmt"
	"math"

	"spasm/internal/app"
	"spasm/internal/mem"
)

// MG is a geometric multigrid solver for the 1-D Poisson problem
// -u” = f, in the style of the NAS MG kernel: V-cycles of weighted
// Jacobi smoothing with restriction and prolongation across a hierarchy
// of grids.  It is an *extension* workload (not part of the paper's
// suite; see Lookup): its communication is hierarchical —
// nearest-neighbour halo exchange at every level, with participation
// shrinking toward the coarse grids until the coarsest solve is serial —
// a locality structure none of the paper's five applications has.
type MG struct {
	N      int // fine-grid interior points (2^k - 1, so grids nest)
	Cycles int // V-cycles
	Pre    int // pre-smoothing sweeps
	Post   int // post-smoothing sweeps
	Seed   int64

	levels int
	h2     []float64 // h^2 per level

	// Shared arrays per level.
	ua, fa, ra []*mem.Array

	// Host values per level.
	u, f, r [][]float64
	// old is the Jacobi sweep's copy of the values it reads, as long as
	// the finest grid.
	old []float64

	bars []*app.Barrier

	residual0 float64
	residualN float64
}

// NewMG returns an MG instance at the given scale.
func NewMG(scale Scale, seed int64) app.Program {
	mg := &MG{Cycles: 4, Pre: 2, Post: 2, Seed: seed}
	// Interior point counts are 2^k - 1 so the Dirichlet grids nest
	// exactly under standard coarsening.
	switch scale {
	case Tiny:
		mg.N = 255
	case Small:
		mg.N = 2047
	default:
		mg.N = 8191
	}
	return mg
}

// Name implements app.Program.
func (m *MG) Name() string { return "mg" }

// Setup builds the grid hierarchy (down to 8 points), allocates the
// per-level shared arrays blocked across processors, and generates a
// smooth random right-hand side.
func (m *MG) Setup(c *app.Ctx) {
	if n := m.N + 1; m.N < 15 || n&(n-1) != 0 {
		panic(fmt.Sprintf("mg: N=%d must be 2^k-1 with k >= 4 so the grids nest", m.N))
	}
	m.levels = 1
	for n := m.N; n > 7; n = (n - 1) / 2 {
		m.levels++
	}
	rng := newRng(m.Seed)
	defer putRng(rng)
	n := m.N
	h := 1.0 / float64(m.N+1)
	for l := 0; l < m.levels; l++ {
		m.ua = append(m.ua, c.Space.Alloc(fmt.Sprintf("mg.u%d", l), n, 8, mem.Blocked))
		m.fa = append(m.fa, c.Space.Alloc(fmt.Sprintf("mg.f%d", l), n, 8, mem.Blocked))
		m.ra = append(m.ra, c.Space.Alloc(fmt.Sprintf("mg.r%d", l), n, 8, mem.Blocked))
		m.u = append(m.u, c.Host.Floats(n))
		m.f = append(m.f, c.Host.Floats(n))
		m.r = append(m.r, c.Host.Floats(n))
		m.h2 = append(m.h2, h*h)
		h *= 2 // the coarse spacing is exactly twice the fine spacing
		n = (n - 1) / 2
	}
	m.old = c.Host.Floats(m.N)
	for i := range m.f[0] {
		x := float64(i+1) / float64(m.N+1)
		m.f[0][i] = math.Sin(3*math.Pi*x) + rng.Float64()*0.1
	}
	// Enough barriers for every stage of every cycle, reused round-robin.
	nb := 4 * m.levels
	for i := 0; i < nb; i++ {
		m.bars = append(m.bars, c.NewBarrier(fmt.Sprintf("mg.bar%d", i), c.P, i%c.P))
	}
	m.residual0 = m.hostResidualNorm()
}

// hostResidualNorm computes ||f - A u|| on the fine grid (host-side).
func (m *MG) hostResidualNorm() float64 {
	n := m.N
	u, f := m.u[0], m.f[0]
	h2 := m.h2[0]
	var sum float64
	for i := 0; i < n; i++ {
		left, right := 0.0, 0.0
		if i > 0 {
			left = u[i-1]
		}
		if i < n-1 {
			right = u[i+1]
		}
		res := f[i] - (2*u[i]-left-right)/h2
		sum += res * res
	}
	return math.Sqrt(sum)
}

// Body implements app.Program.
func (m *MG) Body(p *app.Proc) {
	for cyc := 0; cyc < m.Cycles; cyc++ {
		m.vcycle(p, 0)
	}
	if p.ID == 0 {
		m.residualN = m.hostResidualNorm()
	}
}

// vcycle runs one V-cycle at the given level.
func (m *MG) vcycle(p *app.Proc, l int) {
	n := len(m.u[l])
	if l == m.levels-1 {
		// Coarsest level: processor 0 relaxes to convergence while
		// the others wait — the serial bottom of the V.
		p.Phase("mg-coarse")
		if p.ID == 0 {
			for it := 0; it < 50; it++ {
				m.smoothRange(p, l, 0, n)
			}
		}
		m.barrier(p, l, 0)
		return
	}

	p.Phase("mg-smooth")
	for s := 0; s < m.Pre; s++ {
		m.smoothSlab(p, l)
		m.barrier(p, l, 1)
	}

	// Residual, then restriction to the coarse grid.
	p.Phase("mg-restrict")
	m.residualSlab(p, l)
	m.barrier(p, l, 2)
	m.restrictSlab(p, l)
	m.barrier(p, l, 3)

	m.vcycle(p, l+1)

	// Prolongate the coarse correction and post-smooth.
	p.Phase("mg-prolongate")
	m.prolongateSlab(p, l)
	m.barrier(p, l, 0)
	p.Phase("mg-smooth")
	for s := 0; s < m.Post; s++ {
		m.smoothSlab(p, l)
		m.barrier(p, l, 1)
	}
}

// barrier synchronizes via the level/stage-specific barrier so every
// processor always meets at the same object.
func (m *MG) barrier(p *app.Proc, level, stage int) {
	m.bars[(4*level+stage)%len(m.bars)].Arrive(p)
}

// slab returns this processor's range at a level.
func (m *MG) slab(p *app.Proc, l int) (int, int) {
	return share(len(m.u[l]), p.Ctx.P, p.ID)
}

// smoothSlab applies one weighted-Jacobi sweep over the processor's slab
// (halo reads at the edges are the level's communication).
func (m *MG) smoothSlab(p *app.Proc, l int) {
	lo, hi := m.slab(p, l)
	m.smoothRange(p, l, lo, hi)
}

func (m *MG) smoothRange(p *app.Proc, l, lo, hi int) {
	if lo >= hi {
		return
	}
	n := len(m.u[l])
	u, f := m.u[l], m.f[l]
	h2 := m.h2[l]
	const omega = 2.0 / 3.0

	// Halo reads.
	if lo > 0 {
		p.ReadElem(m.ua[l], lo-1)
	}
	if hi < n {
		p.ReadElem(m.ua[l], hi)
	}
	p.ReadRange(m.ua[l], lo, hi)
	p.ReadRange(m.fa[l], lo, hi)
	// Jacobi needs the old values of the slab and its halo; copy them,
	// then update.  Nothing yields in between, so one copy serves every
	// processor.
	old := m.old
	from, to := max(lo-1, 0), min(hi+1, n)
	copy(old[from:to], u[from:to])
	for i := lo; i < hi; i++ {
		left, right := 0.0, 0.0
		if i > 0 {
			left = old[i-1]
		}
		if i < n-1 {
			right = old[i+1]
		}
		jac := (left + right + h2*f[i]) / 2
		u[i] = (1-omega)*old[i] + omega*jac
	}
	p.Compute(int64(hi-lo) * 5 * FlopCycles)
	p.WriteRange(m.ua[l], lo, hi)
}

// residualSlab computes r = f - A u over the slab.
func (m *MG) residualSlab(p *app.Proc, l int) {
	lo, hi := m.slab(p, l)
	if lo >= hi {
		return
	}
	n := len(m.u[l])
	u, f, r := m.u[l], m.f[l], m.r[l]
	h2 := m.h2[l]
	if lo > 0 {
		p.ReadElem(m.ua[l], lo-1)
	}
	if hi < n {
		p.ReadElem(m.ua[l], hi)
	}
	p.ReadRange(m.ua[l], lo, hi)
	p.ReadRange(m.fa[l], lo, hi)
	for i := lo; i < hi; i++ {
		left, right := 0.0, 0.0
		if i > 0 {
			left = u[i-1]
		}
		if i < n-1 {
			right = u[i+1]
		}
		r[i] = f[i] - (2*u[i]-left-right)/h2
	}
	p.Compute(int64(hi-lo) * 5 * FlopCycles)
	p.WriteRange(m.ra[l], lo, hi)
}

// restrictSlab builds the coarse right-hand side by full weighting of
// the fine residual, and zeroes the coarse solution guess.  The coarse
// slab owner reads fine-grid points that may live on another processor —
// the hierarchy's cross-level communication.
func (m *MG) restrictSlab(p *app.Proc, l int) {
	lo, hi := m.slab(p, l+1)
	fineN := len(m.u[l])
	rf := m.r[l]
	fc, uc := m.f[l+1], m.u[l+1]
	for i := lo; i < hi; i++ {
		fi := 2*i + 1
		p.ReadElem(m.ra[l], fi)
		sum := 2 * rf[fi]
		if fi > 0 {
			p.ReadElem(m.ra[l], fi-1)
			sum += rf[fi-1]
		}
		if fi < fineN-1 {
			p.ReadElem(m.ra[l], fi+1)
			sum += rf[fi+1]
		}
		fc[i] = sum / 4
		uc[i] = 0
		p.WriteElem(m.fa[l+1], i)
		p.WriteElem(m.ua[l+1], i)
	}
	p.Compute(int64(hi-lo) * 4 * FlopCycles)
}

// prolongateSlab interpolates the coarse correction back onto the
// processor's fine slab and adds it to u.
func (m *MG) prolongateSlab(p *app.Proc, l int) {
	lo, hi := m.slab(p, l)
	coarseN := len(m.u[l+1])
	uf, uc := m.u[l], m.u[l+1]
	for i := lo; i < hi; i++ {
		var corr float64
		if i%2 == 1 {
			ci := (i - 1) / 2
			p.ReadElem(m.ua[l+1], ci)
			corr = uc[ci]
		} else {
			left, right := 0.0, 0.0
			if ci := i/2 - 1; ci >= 0 {
				p.ReadElem(m.ua[l+1], ci)
				left = uc[ci]
			}
			if ci := i / 2; ci < coarseN {
				p.ReadElem(m.ua[l+1], ci)
				right = uc[ci]
			}
			corr = (left + right) / 2
		}
		uf[i] += corr
		p.WriteElem(m.ua[l], i)
	}
	p.Compute(int64(hi-lo) * 3 * FlopCycles)
}

// Check verifies the V-cycles actually converged.
func (m *MG) Check() error {
	if m.residual0 <= 0 {
		return fmt.Errorf("mg: empty initial residual")
	}
	reduction := m.residual0 / m.residualN
	want := math.Pow(3, float64(m.Cycles)) // >= 3x per V-cycle
	if reduction < want {
		return fmt.Errorf("mg: residual reduced only %.1fx over %d cycles (want >= %.0fx)",
			reduction, m.Cycles, want)
	}
	return nil
}
