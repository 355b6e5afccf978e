package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// trace is a deterministic execution log: every append happens inside an
// Ordered section, so in a correct parallel run the entries land in
// exactly the sequential dispatch order.
type trace struct {
	log []string
}

func (t *trace) add(p *Proc, format string, args ...any) {
	p.Ordered(func() {
		t.log = append(t.log, fmt.Sprintf("%s@%v: %s", p.Name(), p.Now(), fmt.Sprintf(format, args...)))
	})
}

// runBoth executes the same program sequentially and in parallel mode and
// requires identical results: same error, same event count, same final
// clock, same trace.
func runBoth(t *testing.T, workers int, build func(e *Engine, tr *trace)) (*Engine, *trace) {
	t.Helper()

	seqEng, seqTr := NewEngine(), &trace{}
	build(seqEng, seqTr)
	seqErr := seqEng.Run()

	parEng, parTr := NewEngine(), &trace{}
	build(parEng, parTr)
	parEng.SetParallel(workers)
	if why := parEng.parFallback(); why != "" {
		t.Fatalf("parallel mode unexpectedly unavailable: %q", why)
	}
	parErr := parEng.Run()

	if (seqErr == nil) != (parErr == nil) || (seqErr != nil && seqErr.Error() != parErr.Error()) {
		t.Fatalf("result mismatch: sequential %v, parallel %v", seqErr, parErr)
	}
	if !parEng.ParReport().Parallel {
		t.Fatal("run did not execute in parallel mode")
	}
	if seqEng.Events != parEng.Events {
		t.Fatalf("event count mismatch: sequential %d, parallel %d", seqEng.Events, parEng.Events)
	}
	if seqEng.Now() != parEng.Now() {
		t.Fatalf("final clock mismatch: sequential %v, parallel %v", seqEng.Now(), parEng.Now())
	}
	if len(seqTr.log) != len(parTr.log) {
		t.Fatalf("trace length mismatch: sequential %d, parallel %d", len(seqTr.log), len(parTr.log))
	}
	for i := range seqTr.log {
		if seqTr.log[i] != parTr.log[i] {
			t.Fatalf("trace diverges at %d:\n  sequential: %s\n  parallel:   %s", i, seqTr.log[i], parTr.log[i])
		}
	}
	return parEng, parTr
}

// TestParallelPingPong passes a token between two step functions that poll
// it with asymmetric wake intervals: who finds it when is fixed by the
// dispatch order, so the trace interleaving is fully determined.
func TestParallelPingPong(t *testing.T) {
	_, tr := runBoth(t, 2, func(e *Engine, tr *trace) {
		token := 0
		for i := 0; i < 2; i++ {
			hold, round := Time(3+2*i), 0
			e.SpawnStep("p", stepFunc(func(p *Proc) (Time, bool) {
				if round == 20 {
					return 0, true
				}
				var mine bool
				p.Ordered(func() { mine = token%2 == p.ID })
				if mine {
					tr.add(p, "token round %d", round)
					p.Ordered(func() { token++ })
					round++
				}
				return p.Now() + hold, false
			}))
		}
	})
	if len(tr.log) != 40 {
		t.Fatalf("trace length %d, want 40", len(tr.log))
	}
}

// TestParallelRandomized drives a randomized mix of everything a span
// does — defers, wakes later, at the local clock and in the past, and
// ordered updates of shared state — across several step functions.
func TestParallelRandomized(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		const procs = 8
		build := func(e *Engine, tr *trace) {
			shared := 0
			for i := 0; i < procs; i++ {
				rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
				step := 0
				e.SpawnStep("w", stepFunc(func(p *Proc) (Time, bool) {
					for ; step < 30; step++ {
						switch rng.Intn(5) {
						case 0:
							step++
							return p.Now() + Time(rng.Intn(20)), false
						case 1:
							p.Defer(Time(rng.Intn(9)))
						case 2:
							step++
							return 0, false // resume at the local clock
						case 3:
							step++
							return Time(rng.Intn(400)), false // an absolute wake, perhaps past
						case 4:
							var v int
							p.Ordered(func() {
								shared = shared*31 + p.ID + 1
								v = shared
							})
							tr.add(p, "step %d: shared %d", step, v)
						}
					}
					return 0, true
				}))
			}
		}
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("seed%d_w%d", seed, workers), func(t *testing.T) {
				runBoth(t, workers, build)
			})
		}
	}
}

// TestParallelPanic: a step panic fails the run with the same error text
// as the sequential kernel, after the same events, and the processes still
// queued end as they do there.
func TestParallelPanic(t *testing.T) {
	runBoth(t, 4, func(e *Engine, tr *trace) {
		for i := 0; i < 4; i++ {
			turn := 0
			e.SpawnStep("p", stepFunc(func(p *Proc) (Time, bool) {
				turn++
				switch {
				case turn == 1:
					return p.Now() + Time(10*(p.ID+1)), false
				case p.ID == 2:
					panic("boom")
				case turn == 2:
					return p.Now() + 1000, false
				}
				return 0, true
			}))
		}
	})
}

// TestParallelInterrupt aborts a parallel run mid-flight and requires the
// degenerate drain: an AbortError, no leaked goroutines, and a recorded
// mid-flight fallback.
func TestParallelInterrupt(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var started atomic.Bool
	for i := 0; i < 8; i++ {
		e.SpawnStep("p", stepFunc(func(p *Proc) (Time, bool) {
			started.Store(true)
			return p.Now() + 5, false
		}))
	}
	e.SetParallel(4)
	go func() {
		for !started.Load() {
			runtime.Gosched()
		}
		time.Sleep(200 * time.Microsecond)
		e.Interrupt()
	}()
	err := e.Run()
	var abort *AbortError
	if !errors.As(err, &abort) {
		t.Fatalf("interrupted run returned %v, want *AbortError", err)
	}
	rep := e.ParReport()
	if !rep.Parallel {
		t.Fatal("run did not execute in parallel mode")
	}
	if rep.Fallback != "drained-mid-flight" {
		t.Fatalf("Fallback = %q, want drained-mid-flight", rep.Fallback)
	}
	if !allTerminated(e) {
		t.Fatal("interrupted run left live processes")
	}
	settleGoroutines(t, before)
}

// TestParallelWorkersBoundGoroutines: a window of W workers starts W
// goroutines, however many processes it runs.
func TestParallelWorkersBoundGoroutines(t *testing.T) {
	const procs, workers = 64, 3
	base := runtime.NumGoroutine()
	e := NewEngine()
	var peak atomic.Int64
	for i := 0; i < procs; i++ {
		hops{n: 20, think: Time(i % 3), gap: Time(5 + i%4)}.spawn(e, true, func(*Proc) {
			for n := int64(runtime.NumGoroutine()); ; {
				if seen := peak.Load(); n <= seen || peak.CompareAndSwap(seen, n) {
					break
				}
			}
		})
	}
	e.SetParallel(workers)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ParReport().Parallel {
		t.Fatal("run did not execute in parallel mode")
	}
	if got := int(peak.Load()) - base; got > workers {
		t.Errorf("%d goroutines beyond the caller's during a %d-worker window of %d processes", got, workers, procs)
	}
	settleGoroutines(t, base)
}

// TestParallelFallbackReasons checks each incompatibility the engine
// detects, and that a fallback run still completes correctly.
func TestParallelFallbackReasons(t *testing.T) {
	newTwo := func() *Engine {
		e := NewEngine()
		for i := 0; i < 2; i++ {
			hops{n: 1, gap: 5}.spawn(e, true, func(*Proc) {})
		}
		return e
	}
	cases := []struct {
		name string
		prep func(e *Engine)
		want string
	}{
		{NotStackless, func(e *Engine) { hops{n: 1, gap: 5}.spawn(e, false, func(*Proc) {}) }, NotStackless},
		{"tick-hook", func(e *Engine) { e.Tick = func(Time) {} }, "tick-hook"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newTwo()
			e.SetParallel(4)
			c.prep(e)
			if err := e.Run(); err != nil {
				t.Fatalf("fallback run failed: %v", err)
			}
			rep := e.ParReport()
			if rep.Parallel {
				t.Fatal("fallback run reported parallel execution")
			}
			if rep.Fallback != c.want {
				t.Fatalf("Fallback = %q, want %q", rep.Fallback, c.want)
			}
		})
	}
	t.Run("single-process", func(t *testing.T) {
		e := NewEngine()
		hops{n: 1, gap: 5}.spawn(e, true, func(*Proc) {})
		e.SetParallel(4)
		if err := e.Run(); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		if got := e.ParReport().Fallback; got != "single-process" {
			t.Fatalf("Fallback = %q, want single-process", got)
		}
	})
}

// TestParallelReset: a pooled engine clears all parallel state on Reset
// and runs sequentially afterwards.
func TestParallelReset(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2; i++ {
		hops{n: 1, gap: 5}.spawn(e, true, func(*Proc) {})
	}
	e.SetParallel(2)
	if err := e.Run(); err != nil {
		t.Fatalf("parallel run failed: %v", err)
	}
	if !e.ParReport().Parallel {
		t.Fatal("first run was not parallel")
	}
	e.Reset()
	if rep := e.ParReport(); rep.Requested != 0 || rep.Parallel || rep.Fallback != "" {
		t.Fatalf("Reset left parallel state behind: %+v", rep)
	}
	for i := 0; i < 2; i++ {
		hops{n: 1, gap: 3}.spawn(e, true, func(*Proc) {})
	}
	if err := e.Run(); err != nil {
		t.Fatalf("sequential re-run failed: %v", err)
	}
	if e.ParReport().Parallel {
		t.Fatal("re-run after Reset unexpectedly parallel")
	}
}
