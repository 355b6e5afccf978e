package apps

import (
	"math"
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func runMG(t *testing.T, kind machine.Kind, p, n, cycles int) (*MG, *stats.Run, *app.Result) {
	t.Helper()
	mg := &MG{N: n, Cycles: cycles, Pre: 2, Post: 2, Seed: 1}
	res, err := app.Execute(mg, machine.Config{Kind: kind, Topology: "mesh", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mg, res.Stats, res
}

func TestMGExtendedRegistry(t *testing.T) {
	prog, err := Lookup("mg", Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name() != "mg" {
		t.Errorf("name = %q", prog.Name())
	}
	if _, err := Lookup("bogus", Tiny, 1); err == nil {
		t.Error("unknown extended workload accepted")
	}
	for _, name := range ExtendedNames() {
		for _, suite := range Names() {
			if name == suite {
				t.Errorf("extended workload %q leaked into the paper suite", name)
			}
		}
	}
}

func TestMGRejectsNonNestingSize(t *testing.T) {
	mg := &MG{N: 256, Cycles: 1, Pre: 1, Post: 1, Seed: 1}
	if _, err := app.Execute(mg, machine.Config{Kind: machine.Ideal, P: 2}, app.Options{}); err == nil {
		t.Error("non-nesting grid size accepted")
	}
}

func TestMGConvergesOnEveryMachine(t *testing.T) {
	// Check() enforces >= 3x residual reduction per V-cycle.
	for _, kind := range machine.Kinds() {
		runMG(t, kind, 4, 255, 3)
	}
}

func TestMGResidualDropsPerCycle(t *testing.T) {
	red := func(cycles int) float64 {
		mg, _, _ := runMG(t, machine.Ideal, 4, 255, cycles)
		return mg.residual0 / mg.residualN
	}
	r1, r3 := red(1), red(3)
	if r3 <= r1 {
		t.Errorf("3 cycles (%.1fx) not better than 1 (%.1fx)", r3, r1)
	}
}

func TestMGHierarchyDepth(t *testing.T) {
	mg, _, _ := runMG(t, machine.Ideal, 2, 255, 1)
	// 255 -> 127 -> 63 -> 31 -> 15 -> 7: six levels.
	if mg.levels != 6 {
		t.Errorf("levels = %d, want 6", mg.levels)
	}
	if len(mg.u[mg.levels-1]) != 7 {
		t.Errorf("coarsest grid = %d points", len(mg.u[mg.levels-1]))
	}
}

// phasesByName indexes a run's phase profile.
func phasesByName(res *app.Result) map[string]*app.PhaseStats {
	m := map[string]*app.PhaseStats{}
	for _, ps := range res.Phases.Phases() {
		m[ps.Name] = ps
	}
	return m
}

func TestMGPhasesRecorded(t *testing.T) {
	_, _, res := runMG(t, machine.Target, 4, 255, 2)
	phases := phasesByName(res)
	for _, want := range []string{"mg-smooth", "mg-restrict", "mg-prolongate", "mg-coarse"} {
		if phases[want] == nil {
			t.Errorf("phase %q missing (have %v)", want, phases)
		}
	}
	// The smoother dominates the work.
	smooth := phases["mg-smooth"]
	coarse := phases["mg-coarse"]
	if smooth.Time[stats.Compute] <= coarse.Time[stats.Compute] {
		t.Error("smoothing compute not dominant")
	}
}

func TestMGSerialBottomShowsInSync(t *testing.T) {
	// While processor 0 solves the coarsest grid the others wait: the
	// coarse phase must carry sync time for p > 1.
	_, _, res := runMG(t, machine.CLogP, 8, 255, 2)
	coarse := phasesByName(res)["mg-coarse"]
	if coarse == nil || coarse.Time[stats.Sync] == 0 {
		t.Error("no sync time in the serial coarse phase")
	}
}

func TestMGCommunicatesAtEveryScale(t *testing.T) {
	_, run, _ := runMG(t, machine.CLogP, 8, 511, 1)
	if run.NetAccesses() == 0 {
		t.Error("no network accesses")
	}
	if run.Count(func(q *stats.Proc) uint64 { return q.BarrierOps }) == 0 {
		t.Error("no barrier episodes")
	}
}

func TestMGSolutionIsSmooth(t *testing.T) {
	mg, _, _ := runMG(t, machine.Ideal, 4, 255, 6)
	// After six V-cycles the solution of -u'' = f with smooth f must
	// itself be smooth: bounded second differences.
	u := mg.u[0]
	h2 := mg.h2[0]
	for i := 1; i < len(u)-1; i++ {
		d2 := (2*u[i] - u[i-1] - u[i+1]) / h2
		if math.Abs(d2) > 10 {
			t.Fatalf("second difference %g at %d — not a Poisson solution", d2, i)
		}
	}
}
