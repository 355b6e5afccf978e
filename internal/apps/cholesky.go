package apps

import (
	"fmt"
	"math"

	"spasm/internal/app"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/sparse"
	"spasm/internal/stats"
)

// Cholesky is the SPLASH sparse Cholesky factorization: right-looking
// column Cholesky (cdiv/cmod) over a symbolically factored random SPD
// matrix, with columns scheduled from a dynamically maintained queue of
// runnable tasks — the paper's fully dynamic application.  Which
// processor factors which column depends on simulated timing, so the
// reference pattern cannot be optimized statically; this drives the
// largest LogP-vs-target divergences in the paper (Figures 5, 9, 16,
// 18, 20).
type Cholesky struct {
	N     int
	Extra int
	Seed  int64

	a   *sparse.CSR
	sym *sparse.Symbolic

	// Shared data.
	lvals   *mem.Array // packed CSC factor values
	deps    *mem.Array // remaining-dependency counts per column
	qslots  *mem.Array // task-queue entries
	qhead   *mem.Array // head and tail indices
	qlock   *app.SpinLock
	colLock []*app.SpinLock // striped column locks
	stripes int

	// Host-side state.
	vals      []float64
	depCount  []int
	queue     []int
	head      int
	completed int
	idle      sim.Queue
	done      bool
	byProc    []int // columns factored per processor (load telemetry)
}

// NewCholesky returns a CHOLESKY instance at the given scale.
func NewCholesky(scale Scale, seed int64) app.Program {
	ch := &Cholesky{Extra: 2, Seed: seed}
	switch scale {
	case Tiny:
		ch.N = 48
	case Small:
		ch.N = 220
	default:
		ch.N = 600
	}
	return ch
}

func init() {
	register("cholesky", NewCholesky)
}

// Name implements app.Program.
func (h *Cholesky) Name() string { return "cholesky" }

// Setup generates the matrix, performs symbolic factorization, loads the
// lower triangle into the shared factor array, and seeds the task queue
// with the dependency-free columns.
func (h *Cholesky) Setup(c *app.Ctx) {
	h.a = sparse.RandomSPD(h.N, h.Extra, h.Seed, c.Host)
	h.sym = sparse.SymbolicFactor(h.a, c.Host)
	h.vals = c.Host.Floats(h.sym.NNZ())
	h.sym.LoadLower(h.a, h.vals)

	h.lvals = c.Space.Alloc("chol.lvals", h.sym.NNZ(), 8, mem.Blocked)
	h.deps = c.Space.Alloc("chol.deps", h.N, 8, mem.Blocked)
	h.qslots = c.Space.Alloc("chol.queue", h.N, 8, mem.Interleaved)
	h.qhead = c.Space.AllocAt("chol.qhead", 2, 8, 0)
	h.qlock = c.NewLock("chol.qlock", 0)
	h.stripes = min(16, c.P*2)
	for i := 0; i < h.stripes; i++ {
		h.colLock = append(h.colLock, c.NewLock(fmt.Sprintf("chol.clock%d", i), i%c.P))
	}

	h.depCount = c.Host.Ints(h.N)
	copy(h.depCount, h.sym.Deps)
	// Every column enters the queue once, so it never outgrows N.
	h.queue = c.Host.Ints(h.N)[:0]
	for j := 0; j < h.N; j++ {
		if h.depCount[j] == 0 {
			h.queue = append(h.queue, j)
		}
	}
	h.byProc = c.Host.Ints(c.P)
}

// pop takes the next runnable column off the shared queue, or parks the
// processor until work (or completion) arrives.  It returns -1 when the
// factorization is finished.
func (h *Cholesky) pop(p *app.Proc) int {
	for {
		h.qlock.Lock(p)
		p.ReadElem(h.qhead, 0) // head index
		p.ReadElem(h.qhead, 1) // tail index
		if h.head < len(h.queue) {
			j := h.queue[h.head]
			p.ReadElem(h.qslots, h.head%h.N)
			h.head++
			p.WriteElem(h.qhead, 0)
			h.qlock.Unlock(p)
			return j
		}
		h.qlock.Unlock(p)
		if h.done {
			return -1
		}
		// Idle: wait for a push or for completion.  Flush deferred
		// local time and re-check done so a finish() during the
		// flush is not missed.
		p.S.FlushLag()
		if h.done {
			return -1
		}
		t0 := p.Now()
		h.idle.Wait(p.S)
		p.St.Add(stats.Sync, p.Now()-t0)
	}
}

// push appends a newly runnable column to the shared queue and wakes
// idle processors.
func (h *Cholesky) push(p *app.Proc, j int) {
	h.qlock.Lock(p)
	p.ReadElem(h.qhead, 1)
	h.queue = append(h.queue, j)
	p.WriteElem(h.qslots, (len(h.queue)-1)%h.N)
	p.WriteElem(h.qhead, 1)
	h.qlock.Unlock(p)
	h.idle.WakeAll()
}

// Body implements app.Program.
func (h *Cholesky) Body(p *app.Proc) {
	for {
		p.Phase("queue")
		j := h.pop(p)
		if j < 0 {
			return
		}
		h.factorColumn(p, j)
		h.byProc[p.ID]++
		h.completed++
		if h.completed == h.N {
			// Done: release the idle processors.
			h.done = true
			h.idle.WakeAll()
		}
	}
}

// factorColumn performs cdiv(j) followed by cmod(i, j) for every
// affected column i, pushing columns whose dependencies drain to zero.
func (h *Cholesky) factorColumn(p *app.Proc, j int) {
	rows := h.sym.Col(j)
	base := h.sym.ColPtr[j]

	// cdiv(j): scale column j by the square root of its pivot.  The
	// column's values are a consecutive slice of the factor array,
	// remote or local depending on which processor picked the task.
	p.Phase("cdiv")
	p.ReadRange(h.lvals, base, base+len(rows))
	d := h.vals[base]
	if d <= 0 {
		panic(fmt.Sprintf("cholesky: non-positive pivot %g at column %d", d, j))
	}
	h.vals[base] = math.Sqrt(d)
	for k := 1; k < len(rows); k++ {
		h.vals[base+k] /= h.vals[base]
	}
	p.Compute(SqrtCycles + int64(len(rows)-1)*FlopCycles)
	p.WriteRange(h.lvals, base, base+len(rows))

	// cmod(i, j) for each i in struct(j): subtract the scaled outer
	// product from column i under its stripe lock, then decrement its
	// dependency count.
	p.Phase("cmod")
	for k := 1; k < len(rows); k++ {
		i := rows[k]
		lk := h.colLock[i%h.stripes]
		lk.Lock(p)
		lij := h.vals[base+k]
		for k2 := k; k2 < len(rows); k2++ {
			r := rows[k2]
			idx := h.sym.Index(r, i)
			p.ReadElem(h.lvals, idx)
			h.vals[idx] -= lij * h.vals[base+k2]
			p.WriteElem(h.lvals, idx)
		}
		p.Compute(int64(len(rows)-k) * 2 * FlopCycles)

		p.ReadElem(h.deps, i)
		h.depCount[i]--
		ready := h.depCount[i] == 0
		p.WriteElem(h.deps, i)
		lk.Unlock(p)

		if ready {
			h.push(p, i)
		}
	}
}

// Check verifies L Lᵀ = A over the factored values.
func (h *Cholesky) Check() error {
	if h.completed != h.N {
		return fmt.Errorf("cholesky: %d of %d columns completed", h.completed, h.N)
	}
	total := 0
	for _, c := range h.byProc {
		total += c
	}
	if total != h.N {
		return fmt.Errorf("cholesky: per-processor counts sum to %d", total)
	}
	_, err := h.sym.CheckFactor(h.a, h.vals, 1e-6)
	return err
}
