package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allTerminated reports whether every process spawned on e has unwound.
func allTerminated(e *Engine) bool {
	for _, p := range e.procs {
		if !p.terminated {
			return false
		}
	}
	return true
}

// settleGoroutines waits for the goroutine count to come back to (near)
// base.  Process coroutines are gone when Run returns, but a parallel
// run's workers are joined at their last statement, not their exit, so
// leak checks must allow the scheduler a moment.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d live, want <= %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestInterruptAbortsAndUnwinds: an interrupted run returns *AbortError,
// and every process goroutine — spinners with queued events and parked
// waiters alike — unwinds and exits.
func TestInterruptAbortsAndUnwinds(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q Queue
	for i := 0; i < 4; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Hold(100)
			}
		})
	}
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	}
	e.Interrupt()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("interrupted run left live processes")
	}
	settleGoroutines(t, base)
}

// TestInterruptConcurrentWithRun aborts from another goroutine while the
// run is in full flight — the production shape (a watchdog timer firing
// mid-simulation).
func TestInterruptConcurrentWithRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Spawn("spinner", func(p *Proc) {
			for {
				p.Hold(10)
			}
		})
	}
	go func() {
		time.Sleep(time.Millisecond)
		e.Interrupt()
	}()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("interrupted run left live processes")
	}
	settleGoroutines(t, base+1) // the interrupter itself may still be exiting
}

// TestAbortSurvivesCleanupWakes: deferred cleanup in unwinding
// application frames (the lock-release idiom) may Wake peers the abort
// has already resumed; the run must still report *AbortError — the
// collateral "Wake of non-parked process" panic must neither escape nor
// replace the abort as the recorded failure.
func TestAbortSurvivesCleanupWakes(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q Queue
	procs := make([]*Proc, 0, 4)
	for i := 0; i < 4; i++ {
		p := e.Spawn("cleanup", func(p *Proc) {
			defer func() {
				// Release-style cleanup: wake every peer, whatever state
				// the abort left it in.
				for _, o := range procs {
					if o != p && !o.terminated {
						o.Wake()
					}
				}
			}()
			q.Wait(p)
		})
		procs = append(procs, p)
	}
	e.Interrupt()
	err := e.Run()
	var ab *AbortError
	if !errors.As(err, &ab) {
		t.Fatalf("want AbortError despite cleanup wakes, got %v", err)
	}
	if !allTerminated(e) {
		t.Fatal("run left live processes")
	}
	settleGoroutines(t, base)
}

// TestAbortDispatchesWokenProcessOnce: a process woken by a waker that
// then panics in the same event has two events queued — the wake, and
// the abort's unwind resumption that beginAbort schedules because the
// process has not run since.  The older one is stale: the process is
// dispatched once, on both queues, and the run reports the panic.
func TestAbortDispatchesWokenProcessOnce(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct {
		procs  int
		events uint64
	}{
		{2, 4},             // the binary heap
		{ladderProcs, 258}, // the ladder queue
	} {
		e := NewEngine()
		var q Queue
		e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
		e.Spawn("waker", func(p *Proc) {
			p.Hold(1)
			q.WakeAll()
			panic(boom)
		})
		for i := 2; i < c.procs; i++ {
			e.Spawn("pad", func(*Proc) {})
		}
		err := e.Run()
		if !errors.Is(err, boom) {
			t.Fatalf("%d procs: run error %v, want the waker's panic", c.procs, err)
		}
		if e.Events != c.events {
			t.Errorf("%d procs: %d events, want %d: a stale event was dispatched", c.procs, e.Events, c.events)
		}
		if c.procs >= ladderProcs && e.q != &e.lad {
			t.Errorf("%d procs: run did not select the ladder queue", c.procs)
		}
	}
}

// TestResetAfterInterrupt: an aborted engine resets to a clean state —
// the stop flag does not leak into the next run.
func TestResetAfterInterrupt(t *testing.T) {
	e := NewEngine()
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Hold(100)
		}
	})
	e.Interrupt()
	if err := e.Run(); err == nil {
		t.Fatal("interrupted run succeeded")
	}
	e.Reset()
	if e.stop.Load() {
		t.Fatal("Reset did not clear the stop flag")
	}
	ran := false
	e.Spawn("clean", func(p *Proc) {
		p.Hold(10)
		ran = true
	})
	if err := e.Run(); err != nil || !ran {
		t.Fatalf("post-abort run: err=%v ran=%v", err, ran)
	}
}

// TestInterruptAfterRunIsHarmless: interrupting an engine whose run has
// already completed must not poison anything (the watchdog race at the
// end of a successful run).
func TestInterruptAfterRunIsHarmless(t *testing.T) {
	e := NewEngine()
	e.Spawn("quick", func(p *Proc) { p.Hold(10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Interrupt() // late watchdog
	e.Reset()
	ok := false
	e.Spawn("next", func(p *Proc) { ok = true })
	if err := e.Run(); err != nil || !ok {
		t.Fatalf("run after late interrupt: err=%v ok=%v", err, ok)
	}
}

// chainDepth counts the processes suspended inside another's resumption:
// how deep the chain of handoffs above Run's loop is.
func chainDepth(e *Engine) int {
	n := 0
	for _, p := range e.procs {
		if p.resuming {
			n++
		}
	}
	return n
}

// deepChain spawns 64 coroutines that take turns round-robin, so each
// resumes the next and, by the time the last one runs, the chain of
// resumptions beneath it is 63 deep.  In its fourth turn every process
// calls hit; the last one first records the depth.
func deepChain(e *Engine, depth *int, hit func(p *Proc)) {
	for i := 0; i < 64; i++ {
		e.SpawnIndexed("link", func(p *Proc) {
			p.Hold(Time(p.ID))
			for r := 0; ; r++ {
				if r == 3 {
					if p.ID == 63 {
						*depth = chainDepth(e)
					}
					hit(p)
				}
				p.Hold(64)
			}
		})
	}
}

// TestVehicleLeavesNoGoroutines: whatever ends a run — a panicking body,
// a deadlock, an interrupt that finds processes mid-Hold, or plain
// completion with a process spawned mid-run — every coroutine has
// finished by the time Run returns: the goroutine count is back at its
// baseline.  Two workers change nothing: a parallel window runs step
// functions only, so every case falls back to the sequential kernel.  The
// deep-chain cases end a run while 63 coroutines are suspended inside one
// another's resumption.
func TestVehicleLeavesNoGoroutines(t *testing.T) {
	var dl *DeadlockError
	var ab *AbortError
	var depth int
	cases := []struct {
		name  string
		build func(e *Engine)
		check func(err error) bool
		chain bool // a deep-chain case: the depth is checked
	}{
		{"deep-chain-panic", func(e *Engine) {
			deepChain(e, &depth, func(p *Proc) {
				if p.ID == 63 {
					panic("kaboom")
				}
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "kaboom") }, true},
		{"deep-chain-deadlock", func(e *Engine) {
			deepChain(e, &depth, func(p *Proc) { p.Park() }) // nobody wakes anyone
		}, func(err error) bool { return errors.As(err, &dl) && len(dl.Procs) == 64 }, true},
		{"deep-chain-interrupt", func(e *Engine) {
			deepChain(e, &depth, func(p *Proc) {
				if p.ID == 63 {
					e.Interrupt()
				}
			})
		}, func(err error) bool { return errors.As(err, &ab) }, true},
		{"panic", func(e *Engine) {
			var q Queue
			e.Spawn("parked", func(p *Proc) { q.Wait(p) })
			e.Spawn("sleeper", func(p *Proc) { p.Hold(1e6) })
			e.Spawn("boom", func(p *Proc) {
				p.Hold(10)
				panic("kaboom")
			})
		}, func(err error) bool { return err != nil && strings.Contains(err.Error(), "kaboom") }, false},
		{"deadlock", func(e *Engine) {
			for i := 0; i < 3; i++ {
				e.Spawn("stuck", func(p *Proc) {
					p.Hold(Time(p.ID + 1))
					p.Park()
				})
			}
		}, func(err error) bool { return errors.As(err, &dl) && len(dl.Procs) == 3 }, false},
		{"interrupt-mid-hold", func(e *Engine) {
			for i := 0; i < 4; i++ {
				e.Spawn("spinner", func(p *Proc) {
					for {
						p.Hold(7)
					}
				})
			}
			e.Spawn("killer", func(p *Proc) {
				p.Hold(100)
				e.Interrupt()
				p.Hold(1e6)
			})
		}, func(err error) bool { return errors.As(err, &ab) }, false},
		{"mid-run-spawn", func(e *Engine) {
			for i := 0; i < 2; i++ {
				e.Spawn("root", func(p *Proc) {
					p.Hold(Time(5 * (p.ID + 1)))
					e.Spawn("child", func(c *Proc) { c.Hold(7) })
					p.Hold(30)
				})
			}
		}, func(err error) bool { return err == nil }, false},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", c.name, workers), func(t *testing.T) {
				base := runtime.NumGoroutine()
				e := NewEngine()
				depth = 0
				c.build(e)
				e.SetParallel(workers)
				if err := e.Run(); !c.check(err) {
					t.Fatalf("run returned %v", err)
				}
				if rep := e.ParReport(); rep.Parallel || workers > 1 && rep.Fallback != NotStackless {
					t.Fatalf("%d workers: parallel report %+v, want a sequential run", workers, rep)
				}
				if c.chain && depth < 32 {
					t.Fatalf("the chain was %d deep when the run ended, want at least 32", depth)
				}
				if !allTerminated(e) {
					t.Fatal("run left live processes")
				}
				settleGoroutines(t, base)
			})
		}
	}
}
