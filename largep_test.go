package spasm

// The acceptance runs for the large-P work: 1024-processor runs on every
// networked tier and a 256-processor Target run on the mesh must complete
// cleanly — no directory panic, no route-table cliff, no per-message
// allocation blow-up — and produce self-consistent statistics.  The
// uniform synthetic-traffic workload drives them: its cost is linear in
// P and its Check replays the deterministic reference stream, so
// completion implies the traffic was exactly the scheduled traffic.

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"spasm/internal/machine"
	"spasm/internal/report"
	"spasm/internal/stats"
)

// run1024 makes one fresh 1024-processor uniform run on the torus and
// holds the whole run, set-up included, to an allocation budget of 1.1x
// its measured cost (logged below).  The measurement is repeatable to
// 0.3 % and highest as the first test of a process — where processors are
// coroutines (CLogP and Target), by about 1,000 objects and 0.5 MB,
// until the runtime has 1024 dead goroutine descriptors on hand.  The
// first-run figures:
//
//	flow    8,182 objects   5.88 MB
//	logp    1,185           1.77 MB
//	clogp  25,096          23.98 MB
//	target 24,392          23.26 MB
//
// A stream is drawn by value, by the driver and by Check, from a cursor:
// with a stream object for each it cost 2,048 objects more on flow and
// logp.  The LogP and Flow runs are stackless, their processes' kernel
// and driver state three arrays (the engine's slab of sim.Proc, the run's
// feeds and tallies): an object each for either coming back is +1,024
// objects and fails here, as does a coroutine per processor (the LogP run
// cost 17.6 k objects when it had them, the Flow run 24.6 k).
// The coherent tiers' bytes are their caches — 16 MB of tag store, 16 KB a
// node at one 8-byte word a line; the 24-byte line that preceded it is
// +32 MB and fails here — and their run must leave directory and caches
// consistent.  On any tier, so does one heap object per message (+262k
// objects), an O(P²) table (+8 MB) or a kilobyte of state per processor
// (+1 MB) — in tier-1, at the size that shows it.  The coroutine tiers'
// budgets are not meaningful under -race, whose instrumented build
// allocates some 4,000 more objects (iter.Pull: ten a coroutine, not six).
func run1024(t *testing.T, kind Kind, maxObjects, maxBytes uint64) {
	if testing.Short() {
		t.Skip("1024-processor run")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run("uniform", Tiny, 1, Config{Kind: kind, Topology: "torus", P: 1024})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatalf("run completed with non-positive total %v", res.Stats.Total)
	}
	if res.Stats.NetAccesses() == 0 {
		t.Fatal("1024-processor run carried no network traffic")
	}
	if got := len(res.Stats.Procs); got != 1024 {
		t.Fatalf("statistics cover %d processors, want 1024", got)
	}
	if err := machine.CheckInvariants(res.Machine); err != nil {
		t.Errorf("%v/p1024: %v", kind, err)
	}
	objects, size := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%v/p1024: %d messages, %d objects, %d bytes allocated", kind, res.Stats.Messages(), objects, size)
	if objects > maxObjects || size > maxBytes {
		t.Errorf("%v/p1024 allocated %d objects and %d bytes; budget is %d and %d",
			kind, objects, size, maxObjects, maxBytes)
	}
}

func TestFlow1024Procs(t *testing.T)   { run1024(t, Flow, 8990, 6460e3) }
func TestLogP1024Procs(t *testing.T)   { run1024(t, LogP, 1304, 1944e3) }
func TestCLogP1024Procs(t *testing.T)  { run1024(t, CLogP, 27600, 26400e3) }
func TestTarget1024Procs(t *testing.T) { run1024(t, Target, 26800, 25600e3) }

func TestTarget256Procs(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor coherent run")
	}
	res, err := Run("uniform", Tiny, 1, Config{Kind: Target, Topology: "mesh", P: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total <= 0 {
		t.Fatalf("run completed with non-positive total %v", res.Stats.Total)
	}
	// A coherent run at this scale must have exercised the directory:
	// uniform writes to shared blocks force invalidations.
	if res.Stats.Count(func(q *stats.Proc) uint64 { return q.Invals }) == 0 {
		t.Fatal("coherent 256-processor run produced no invalidations")
	}
}

// TestFlow1024PooledIdentical locks pooled reuse at the scale the
// large-P allocation work targets: a 1024-processor flow-tier run on a
// reused context — whose second pass rides the flow arena and the ladder
// event queue in their post-reset state — must produce a RunDoc
// byte-identical to a fresh run's.
func TestFlow1024PooledIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("three 1024-processor runs")
	}
	cfg := Config{Kind: Flow, Topology: "torus", P: 1024}
	fresh, err := Run("uniform", Tiny, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(fresh))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewRunPool(0)
	for pass := 0; pass < 2; pass++ {
		pooled, err := RunSpecOn(Spec{App: "uniform", Scale: Tiny, Machine: cfg.Kind, Topology: cfg.Topology, P: cfg.P}, pool)
		if err != nil {
			t.Fatalf("pooled pass %d: %v", pass, err)
		}
		got, err := json.Marshal(report.RunJSON(pooled))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("pooled pass %d diverged from fresh run\nfresh:  %s\npooled: %s", pass, want, got)
		}
	}
	if st := pool.Stats(); st.Hits != 1 {
		t.Fatalf("second pooled pass did not reuse the context (stats %+v)", st)
	}
}

// TestFlow256ProcsParallelIdentical drives a 256-processor flow-tier
// spec through the parallel-workers path: flow prices a reference at
// issue, so its stream runs in the parallel kernel, and the result
// document must be the sequential run's bytes.
func TestFlow256ProcsParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor runs")
	}
	var docs [2][]byte
	for i, workers := range []int{0, 4} {
		res, _, err := Execute(Spec{App: "uniform", Machine: Flow, Topology: "mesh", P: 256, Workers: workers}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 && (res.Par == nil || !res.Par.Parallel) {
			t.Fatalf("flow with workers: parallel report %+v, want a parallel run", res.Par)
		}
		if docs[i], err = json.Marshal(report.RunJSON(res)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("parallel run diverged\nsequential: %s\nparallel:   %s", docs[0], docs[1])
	}
}

// TestAbortLatency bounds how long a timeout that lands mid-run takes to
// end a 4096-processor LogP run when the event loop owns the only P.  The
// kernel never enters the Go scheduler, so the timer's callback runs at
// the runtime's next forced preemption rather than at the next event
// (RunControl states the bound); then each of the 4096 processes —
// stackless, since uniform is a stream and LogP prices at issue — ends at
// its next event, and the goroutine count must be back where it was:
// there never was one per processor.
func TestAbortLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-processor runs")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base := runtime.NumGoroutine()
	// Small, not Tiny: the stackless run of the tiny quota is over in
	// 150 ms on the recording host, too close to where the aborts land.
	spec := Spec{App: "uniform", Scale: Small, Machine: LogP, Topology: "cube", P: 4096}
	const land, bound = 100 * time.Millisecond, 250 * time.Millisecond

	// A deadline already past when the event loop starts aborts before
	// the first event: that run's duration is set-up plus unwinding, the
	// part of the run below the timer has no say in.
	t0 := time.Now()
	if _, _, err := Execute(spec, RunOptions{Control: RunControl{Timeout: time.Nanosecond}}); !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("run past its deadline at start: %v", err)
	}
	fixed := time.Since(t0)

	for _, c := range []struct {
		name string
		ctl  RunControl
		want error
	}{
		{"timeout", RunControl{Timeout: land}, ErrRunTimeout}, // the clock starts after set-up
	} {
		t0 := time.Now()
		_, _, err := Execute(spec, RunOptions{Control: c.ctl})
		late := time.Since(t0) - fixed - land
		if err == nil {
			t.Skipf("%s: the run finished inside %v; host too fast to abort mid-run", c.name, land)
		}
		if !errors.Is(err, c.want) {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s landing mid-run: aborted %v late (set-up and unwind %v)", c.name, late, fixed)
		if late > bound {
			t.Errorf("%s: aborted %v after it landed, bound %v", c.name, late, bound)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live, %d before the runs", runtime.NumGoroutine(), base)
		}
	}
}
