package app

import (
	"fmt"
	"testing"

	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// testProg is a configurable Program for framework tests.
type testProg struct {
	name  string
	setup func(*Ctx)
	body  func(*Proc)
	check func() error
}

func (t *testProg) Name() string { return t.name }
func (t *testProg) Setup(c *Ctx) { t.setup(c) }
func (t *testProg) Body(p *Proc) { t.body(p) }
func (t *testProg) Check() error {
	if t.check != nil {
		return t.check()
	}
	return nil
}

func runProg(t *testing.T, p int, kind machine.Kind, setup func(*Ctx), body func(*Proc)) *stats.Run {
	t.Helper()
	prog := &testProg{name: "test", setup: setup, body: body}
	res, err := Execute(prog, machine.Config{Kind: kind, Topology: "full", P: p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

func TestComputeChargesComputeBucket(t *testing.T) {
	run := runProg(t, 2, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) { p.Compute(100) })
	for i := range run.Procs {
		if run.Procs[i].Time[stats.Compute] != sim.Cycles(100) {
			t.Errorf("proc %d compute = %v", i, run.Procs[i].Time[stats.Compute])
		}
	}
	if run.Total != sim.Cycles(100) {
		t.Errorf("total = %v", run.Total)
	}
}

func TestComputeNonPositiveNoop(t *testing.T) {
	run := runProg(t, 1, machine.Ideal,
		func(c *Ctx) {},
		func(p *Proc) { p.Compute(0); p.Compute(-5) })
	if run.Total != 0 {
		t.Errorf("total = %v", run.Total)
	}
}

func TestReadWriteRangesIssueReferences(t *testing.T) {
	var arr *mem.Array
	run := runProg(t, 2, machine.Ideal,
		func(c *Ctx) { arr = c.Space.Alloc("x", 32, 8, mem.Blocked) },
		func(p *Proc) {
			if p.ID == 0 {
				p.ReadRange(arr, 0, 10)
				p.WriteRange(arr, 10, 15)
				p.ReadElem(arr, 0)
				p.WriteElem(arr, 1)
			}
		})
	st := &run.Procs[0]
	if st.Reads != 11 || st.Writes != 6 {
		t.Errorf("reads=%d writes=%d", st.Reads, st.Writes)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	var (
		lock    *SpinLock
		inside  int
		maxSeen int
		total   int
	)
	runProg(t, 8, machine.Target,
		func(c *Ctx) { lock = c.NewLock("l", 0) },
		func(p *Proc) {
			for i := 0; i < 5; i++ {
				lock.Lock(p)
				inside++
				if inside > maxSeen {
					maxSeen = inside
				}
				total++
				p.Compute(50)
				inside--
				lock.Unlock(p)
				p.Compute(20)
			}
		})
	if maxSeen != 1 {
		t.Errorf("mutual exclusion violated: %d inside", maxSeen)
	}
	if total != 40 {
		t.Errorf("critical sections = %d, want 40", total)
	}
	if lock.held {
		t.Error("lock left held")
	}
}

func TestSpinLockCountsOps(t *testing.T) {
	var lock *SpinLock
	run := runProg(t, 4, machine.CLogP,
		func(c *Ctx) { lock = c.NewLock("l", 0) },
		func(p *Proc) {
			lock.Lock(p)
			p.Compute(10)
			lock.Unlock(p)
		})
	if got := run.Count(func(q *stats.Proc) uint64 { return q.LockOps }); got != 4 {
		t.Errorf("lock ops = %d", got)
	}
}

func TestLockGeneratesNetworkTraffic(t *testing.T) {
	// Lock words homed at node 0: remote contenders must produce
	// network traffic on every machine with a network.
	for _, kind := range []machine.Kind{machine.LogP, machine.CLogP, machine.Target} {
		var lock *SpinLock
		run := runProg(t, 4, kind,
			func(c *Ctx) { lock = c.NewLock("l", 0) },
			func(p *Proc) {
				lock.Lock(p)
				p.Compute(10)
				lock.Unlock(p)
			})
		if run.Messages() == 0 {
			t.Errorf("%v: lock traffic invisible to the network", kind)
		}
	}
}

func TestUnlockByNonHolderFailsRun(t *testing.T) {
	prog := &testProg{
		name:  "bad-unlock",
		setup: func(*Ctx) {},
		body: func(p *Proc) {
			l := p.Ctx.NewLock("l", p.ID)
			l.Unlock(p)
		},
	}
	if _, err := Execute(prog, machine.Config{Kind: machine.Ideal, P: 2}, Options{}); err == nil {
		t.Error("misuse panic not surfaced as run error")
	}
}

func TestFlagSignalling(t *testing.T) {
	var (
		flag  *Flag
		order []int
	)
	runProg(t, 2, machine.Target,
		func(c *Ctx) { flag = c.NewFlag("f", 0) },
		func(p *Proc) {
			if p.ID == 0 {
				p.Compute(1000)
				order = append(order, 0)
				flag.Set(p)
			} else {
				flag.Wait(p)
				order = append(order, 1)
			}
		})
	if fmt.Sprint(order) != "[0 1]" {
		t.Errorf("order = %v", order)
	}
	if !flag.set {
		t.Error("flag not set")
	}
}

func TestFlagWaiterSyncTimeCharged(t *testing.T) {
	var flag *Flag
	run := runProg(t, 2, machine.Ideal,
		func(c *Ctx) { flag = c.NewFlag("f", 0) },
		func(p *Proc) {
			if p.ID == 0 {
				p.Compute(100000)
				flag.Set(p)
			} else {
				flag.Wait(p)
			}
		})
	if run.Procs[1].Time[stats.Sync] == 0 {
		t.Error("waiter charged no sync time")
	}
	if run.Procs[0].Time[stats.Sync] != 0 {
		t.Error("setter charged sync time")
	}
}

func TestFlagNetworkAccessesMatchPaperPattern(t *testing.T) {
	// On CLogP the waiter pays the network for its first probe (cold
	// miss) and the probe after the setter's invalidation — NOT for
	// the spin probes in between.  On LogP every probe of the remotely
	// homed flag crosses the network.
	count := func(kind machine.Kind) uint64 {
		var flag *Flag
		run := runProg(t, 2, kind,
			func(c *Ctx) { flag = c.NewFlag("f", 0) },
			func(p *Proc) {
				if p.ID == 0 {
					p.Compute(5000)
					flag.Set(p)
				} else {
					flag.Wait(p) // waiter is node 1: flag is remote
				}
			})
		return run.Procs[1].NetAccesses
	}
	clogp, logpN := count(machine.CLogP), count(machine.LogP)
	if clogp != 2 {
		t.Errorf("CLogP waiter net accesses = %d, want 2 (first and last probe)", clogp)
	}
	if logpN <= clogp {
		t.Errorf("LogP waiter net accesses = %d, want > %d (every probe)", logpN, clogp)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	var (
		bar     *Barrier
		arrived [4]sim.Time
		left    [4]sim.Time
	)
	runProg(t, 4, machine.Target,
		func(c *Ctx) { bar = c.NewBarrier("b", 4, 0) },
		func(p *Proc) {
			p.Compute(int64(1000 * (p.ID + 1)))
			arrived[p.ID] = p.Now()
			bar.Arrive(p)
			left[p.ID] = p.Now()
		})
	// No one may leave before the last arrival.
	var lastArrive sim.Time
	for _, a := range arrived {
		if a > lastArrive {
			lastArrive = a
		}
	}
	for i, l := range left {
		if l < lastArrive {
			t.Errorf("proc %d left at %v before last arrival %v", i, l, lastArrive)
		}
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	const rounds = 5
	var bar *Barrier
	counts := make([]int, rounds)
	runProg(t, 4, machine.CLogP,
		func(c *Ctx) { bar = c.NewBarrier("b", 4, 0) },
		func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Compute(int64(100 * (p.ID + 1)))
				bar.Arrive(p)
				counts[r]++ // safe: cooperative scheduling
				bar.Arrive(p)
			}
		})
	for r, c := range counts {
		if c != 4 {
			t.Errorf("round %d count = %d", r, c)
		}
	}
}

func TestBarrierOpsCounted(t *testing.T) {
	var bar *Barrier
	run := runProg(t, 4, machine.Ideal,
		func(c *Ctx) { bar = c.NewBarrier("b", 4, 0) },
		func(p *Proc) {
			bar.Arrive(p)
			bar.Arrive(p)
		})
	if got := run.Count(func(q *stats.Proc) uint64 { return q.BarrierOps }); got != 8 {
		t.Errorf("barrier ops = %d", got)
	}
}

func TestRunDeterminism(t *testing.T) {
	make_ := func() *stats.Run {
		var lock *SpinLock
		var bar *Barrier
		var arr *mem.Array
		return runProg(t, 8, machine.Target,
			func(c *Ctx) {
				lock = c.NewLock("l", 0)
				bar = c.NewBarrier("b", 8, 1)
				arr = c.Space.Alloc("x", 256, 8, mem.Blocked)
			},
			func(p *Proc) {
				for i := 0; i < 3; i++ {
					lo, hi := arr.OwnerRange((p.ID + 1) % 8)
					p.ReadRange(arr, lo, hi)
					lock.Lock(p)
					p.Compute(25)
					lock.Unlock(p)
					bar.Arrive(p)
				}
			})
	}
	a, b := make_(), make_()
	if a.Total != b.Total || a.Messages() != b.Messages() ||
		a.Sum(stats.Contention) != b.Sum(stats.Contention) {
		t.Errorf("nondeterministic runs:\n%v\n%v", a, b)
	}
}

func TestRunRecordsMeta(t *testing.T) {
	run := runProg(t, 2, machine.Ideal, func(c *Ctx) {}, func(p *Proc) { p.Compute(10) })
	if run.SimEvents == 0 {
		t.Error("no sim events recorded")
	}
}

func TestRunPropagatesCheckError(t *testing.T) {
	prog := &testProg{
		name:  "bad",
		setup: func(*Ctx) {},
		body:  func(*Proc) {},
		check: func() error { return fmt.Errorf("wrong answer") },
	}
	if _, err := Execute(prog, machine.Config{Kind: machine.Ideal, P: 2}, Options{}); err == nil {
		t.Error("check error not propagated")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	prog := &testProg{name: "x", setup: func(*Ctx) {}, body: func(*Proc) {}}
	if _, err := Execute(prog, machine.Config{Kind: machine.Ideal, P: 0}, Options{}); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := Execute(prog, machine.Config{Kind: machine.Target, Topology: "nope", P: 2}, Options{}); err == nil {
		t.Error("bad topology accepted")
	}
}
