package apps

import (
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/sparse"
	"spasm/internal/stats"
)

func runCG(t *testing.T, kind machine.Kind, p, n, iters int) (*CG, *stats.Run) {
	t.Helper()
	cg := &CG{N: n, Extra: 3, Iters: iters, Seed: 1}
	res, err := app.Execute(cg, machine.Config{Kind: kind, Topology: "full", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cg, res.Stats
}

func TestCGConvergesOnEveryMachine(t *testing.T) {
	for _, kind := range machine.Kinds() {
		runCG(t, kind, 4, 64, 4)
	}
}

func TestCGResidualShrinksWithIterations(t *testing.T) {
	res := func(iters int) float64 {
		cg, _ := runCG(t, machine.Ideal, 4, 96, iters)
		return sparse.Residual(cg.a, cg.x, cg.b, make([]float64, cg.N))
	}
	r2, r6 := res(2), res(6)
	if r6 >= r2 {
		t.Errorf("residual after 6 iters (%g) not below 2 iters (%g)", r6, r2)
	}
}

func TestCGSolutionApproachesOnes(t *testing.T) {
	// b was built as A*ones, so x converges toward the all-ones vector.
	cg, _ := runCG(t, machine.Ideal, 2, 64, 12)
	for i, v := range cg.x {
		if v < 0.8 || v > 1.2 {
			t.Fatalf("x[%d] = %g after 12 iterations", i, v)
		}
	}
}

func TestCGIrregularReadsCommunicate(t *testing.T) {
	// The mat-vec's p[col] reads follow the sparsity pattern; with
	// random off-diagonals some must be remote.
	_, run := runCG(t, machine.CLogP, 4, 128, 2)
	if run.NetAccesses() == 0 {
		t.Error("CG produced no network accesses")
	}
}

func TestCGReductionsSerializeOnLock(t *testing.T) {
	_, run := runCG(t, machine.Target, 8, 128, 2)
	ops := run.Count(func(q *stats.Proc) uint64 { return q.LockOps })
	// Per iteration per processor: two lock-guarded reductions plus
	// three barrier arrivals (the centralized barrier's counter lock).
	if want := uint64(8 * 2 * (2 + 3)); ops != want {
		t.Errorf("lock ops = %d, want %d", ops, want)
	}
}

func TestCGDeterministicAcrossMachinesNumerically(t *testing.T) {
	// The numerical result depends on the order of lock-guarded float
	// accumulation, which differs between machines — but each machine
	// must be self-consistent and all must converge to the same
	// solution within tolerance.
	a, _ := runCG(t, machine.Target, 4, 96, 6)
	b, _ := runCG(t, machine.LogP, 4, 96, 6)
	for i := range a.x {
		d := a.x[i] - b.x[i]
		if d < -1e-6 || d > 1e-6 {
			t.Fatalf("x[%d] differs across machines: %g vs %g", i, a.x[i], b.x[i])
		}
	}
}

func TestCGBarrierCountMatchesStructure(t *testing.T) {
	_, run := runCG(t, machine.Ideal, 4, 64, 3)
	ops := run.Count(func(q *stats.Proc) uint64 { return q.BarrierOps })
	if want := uint64(4 * 3 * 3); ops != want { // 3 barriers x 3 iters x 4 procs
		t.Errorf("barrier ops = %d, want %d", ops, want)
	}
}
