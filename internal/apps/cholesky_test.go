package apps

import (
	"fmt"
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func runChol(t *testing.T, kind machine.Kind, p, n int) (*Cholesky, *stats.Run) {
	t.Helper()
	ch := &Cholesky{N: n, Extra: 2, Seed: 1}
	res, err := app.Execute(ch, machine.Config{Kind: kind, Topology: "full", P: p}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ch, res.Stats
}

func TestCholeskyFactorsOnEveryMachine(t *testing.T) {
	// Check() verifies L*L^T = A; the factor values depend on the
	// timing-driven cmod order, so passing on all machines shows the
	// dynamic scheduling is robust under every timing model.
	for _, kind := range machine.Kinds() {
		runChol(t, kind, 4, 40)
	}
}

func TestCholeskyAllColumnsExactlyOnce(t *testing.T) {
	ch, _ := runChol(t, machine.Target, 4, 48)
	if ch.completed != ch.N {
		t.Errorf("completed %d of %d", ch.completed, ch.N)
	}
	total := 0
	for _, c := range ch.byProc {
		total += c
	}
	if total != ch.N {
		t.Errorf("byProc sums to %d", total)
	}
}

func TestCholeskyScheduleIsTimingDependent(t *testing.T) {
	// The defining property of the dynamic application: different
	// machines assign different columns to different processors.
	assign := func(kind machine.Kind) string {
		ch, _ := runChol(t, kind, 4, 48)
		return fmt.Sprint(ch.byProc)
	}
	a := assign(machine.Target)
	b := assign(machine.LogP)
	if a == b {
		t.Logf("warning: identical schedules on target and LogP (possible but unlikely): %s", a)
	}
	// Determinism: the same machine reproduces its schedule exactly.
	if a != assign(machine.Target) {
		t.Error("schedule not deterministic on the target machine")
	}
}

func TestCholeskyQueueTrafficVisible(t *testing.T) {
	_, run := runChol(t, machine.Target, 4, 48)
	if ops := run.Count(func(q *stats.Proc) uint64 { return q.LockOps }); ops == 0 {
		t.Error("task queue acquired no locks")
	}
	if run.Messages() == 0 {
		t.Error("no network traffic from factorization")
	}
}

func TestCholeskySingleProcessorSequential(t *testing.T) {
	ch, _ := runChol(t, machine.Ideal, 1, 40)
	if ch.byProc[0] != ch.N {
		t.Errorf("single processor factored %d of %d", ch.byProc[0], ch.N)
	}
}

func TestCholeskyIdleTimeChargedWhenStarved(t *testing.T) {
	// With many processors and a small matrix, the elimination tree's
	// critical path starves some processors: sync time must appear.
	_, run := runChol(t, machine.Target, 8, 32)
	if run.Sum(stats.Sync) == 0 {
		t.Error("no idle/sync time despite starvation-prone configuration")
	}
}

func TestCholeskyWorkGrowsWithMatrix(t *testing.T) {
	_, small := runChol(t, machine.Ideal, 4, 32)
	_, large := runChol(t, machine.Ideal, 4, 96)
	if large.Total <= small.Total {
		t.Errorf("larger matrix not slower: %v vs %v", large.Total, small.Total)
	}
}
