package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// TestEventDispatchAllocBudget pins the allocation cost of the kernel.
//
// Steady state: at most one allocation per dispatched event, amortized
// over a long run.  The concrete-typed heap should make the real number
// near zero (occasional slice growth only); the budget of 1 leaves room
// for the runtime without letting interface boxing or per-event
// closures creep back in.
//
// Per process: a Spawn is the Proc, the body closure and what iter.Pull
// allocates for the coroutine (eleven small objects; its stack is not
// counted here) — 13 objects and 620-700 bytes measured, the bytes
// moving with how many dead goroutine descriptors the runtime had on
// hand.  The object budget is therefore the tight one: it has no room
// for what a sequential run must not pay for again — a channel, a
// formatted name, the parallel mode's span state.
func TestEventDispatchAllocBudget(t *testing.T) {
	measure := func(procs, holds int) (perEvent, perSpawn, bytesPerSpawn float64) {
		run := func() uint64 {
			e := NewEngine()
			body := func(p *Proc) {
				for j := 0; j < holds; j++ {
					p.Hold(1)
				}
			}
			for i := 0; i < procs; i++ {
				e.SpawnIndexed("p", body)
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return e.Events
		}
		run() // warm up the runtime (goroutine structures, stacks)

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		events := run()
		runtime.ReadMemStats(&after)
		mallocs := float64(after.Mallocs - before.Mallocs)
		return mallocs / float64(events), mallocs / float64(procs),
			float64(after.TotalAlloc-before.TotalAlloc) / float64(procs)
	}

	if perEvent, _, _ := measure(4, 2000); perEvent > 1 {
		t.Errorf("dispatch allocates %.2f objects/event; budget is 1", perEvent)
	}
	_, perSpawn, bytesPerSpawn := measure(1000, 1)
	t.Logf("spawn: %.2f objects, %.0f bytes per process", perSpawn, bytesPerSpawn)
	if perSpawn > 13.5 || bytesPerSpawn > 768 {
		t.Errorf("a process costs %.2f objects and %.0f bytes; budget is 13.5 and 768", perSpawn, bytesPerSpawn)
	}
}

// scanRetained reports every backing slot — including slots beyond the
// live length, up to capacity — of the engine's event structures that
// still references a *Proc: the heap and the ladder queue (bottom run,
// rung buckets, top).
func scanRetained(t *testing.T, e *Engine, when string) {
	t.Helper()
	check := func(where string, s []event) {
		full := s[:cap(s)]
		for i := range full {
			if full[i].p != nil {
				t.Errorf("%s: %s backing slot %d still references proc %q",
					when, where, i, full[i].p.Name())
			}
		}
	}
	check("heap", e.heap.s)
	check("ladder bottom", e.lad.bot)
	check("ladder top", e.lad.top)
	rungs := e.lad.rungs[:cap(e.lad.rungs)]
	for ri := range rungs {
		bkt := rungs[ri].bkt[:cap(rungs[ri].bkt)]
		for bi := range bkt {
			check(fmt.Sprintf("ladder rung %d bucket %d", ri, bi), bkt[bi])
		}
	}
}

// TestQueueRetainsNoProcsAfterRun guards the memory-pin fix: after Run
// drains, none of the event structures' backing arrays — the heap or
// any part of the ladder queue — may still
// reference a *Proc.  A retained reference would pin the process (and
// transitively its closure and goroutine allocations) for the lifetime
// of the engine — a real leak for long-lived services that keep engines
// around after inspecting results.  The large round crosses the
// ladderProcs threshold so the ladder queue's slots are exercised too.
func TestQueueRetainsNoProcsAfterRun(t *testing.T) {
	for _, procs := range []int{64, ladderProcs} {
		e := NewEngine()
		for i := 0; i < procs; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 50; j++ {
					p.Hold(Time(1 + (i+j)%7))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if procs >= ladderProcs && e.q != &e.lad {
			t.Fatalf("%d-proc run did not select the ladder queue", procs)
		}
		scanRetained(t, e, fmt.Sprintf("after %d-proc run", procs))
		e.Reset()
		scanRetained(t, e, fmt.Sprintf("after %d-proc run + Reset", procs))
	}
}

// TestWaitQueuesAllocateNothing: in steady state an 8-contender lock
// convoy and a Wait/wakeOne churn reuse their wait queues' backing
// arrays.  A FIFO that pops by re-slicing from the front slides along its
// array and reallocates it whenever it reaches the end.
func TestWaitQueuesAllocateNothing(t *testing.T) {
	// measure runs the engine's processes with m taking turns through
	// round: a warm-up, then AllocsPerRun over chunks of rounds, during
	// which every other process runs its own loop too.
	measure := func(name string, e *Engine, round func(m *Proc), done *bool) {
		e.Spawn("measure", func(m *Proc) {
			for i := 0; i < 50; i++ {
				round(m)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 10; i++ {
					round(m)
				}
			}); allocs != 0 {
				t.Errorf("%s: %v allocations per 10 rounds in steady state", name, allocs)
			}
			*done = true
		})
		if err := e.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	e := NewEngine()
	var l Lock
	var done bool
	convoy := func(p *Proc) {
		l.Acquire(p)
		p.Hold(5)
		l.Release(p)
		p.Hold(1)
	}
	for i := 0; i < 7; i++ {
		e.Spawn("contender", func(p *Proc) {
			for !done {
				convoy(p)
			}
		})
	}
	measure("lock convoy", e, convoy, &done)

	e = NewEngine()
	var q Queue
	done = false
	for i := 0; i < 4; i++ {
		e.Spawn("waiter", func(p *Proc) {
			for !done {
				q.Wait(p)
			}
		})
	}
	e.Spawn("closer", func(p *Proc) {
		for !done || e.nLive > 1 {
			p.Hold(1000)
			q.WakeAll()
		}
	})
	measure("wait/wake churn", e, func(m *Proc) {
		m.Hold(1)
		wakeOne(&q)
		m.Hold(1)
		wakeOne(&q)
	}, &done)
}

// scanWaiters reports every slot of q's backing array, up to capacity,
// that still references a *Proc.
func scanWaiters(t *testing.T, q *Queue, what string) {
	t.Helper()
	if q.Len() != 0 {
		t.Errorf("%s: %d waiters left", what, q.Len())
	}
	for i, w := range q.waiters[:cap(q.waiters)] {
		if w != nil {
			t.Errorf("%s: backing slot %d still references proc %q", what, i, w.Name())
		}
	}
}

// TestWaitQueuesRetainNoProcs: a drained Queue or Lock holds no *Proc in
// any slot of its backing array, whichever way its waiters left — lock
// handoff, wakeOne or WakeAll (a barrier) — so a pooled engine's lock
// that the next run never touches pins none of the last run's processes.
func TestWaitQueuesRetainNoProcs(t *testing.T) {
	e := NewEngine()
	var l Lock
	var q Queue
	b := NewBarrier(6)
	for i := 0; i < 6; i++ {
		e.Spawn("worker", func(p *Proc) {
			for r := 0; r < 5; r++ {
				l.Acquire(p)
				p.Hold(3)
				l.Release(p)
				b.Arrive(p)
			}
			q.Wait(p)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Hold(1000)
		for wakeOne(&q) {
			p.Hold(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	scanWaiters(t, &l.q, "lock")
	scanWaiters(t, &b.q, "barrier")
	scanWaiters(t, &q, "queue")
}

// TestHandoffStress exercises dispatch under churn: many engines, wake
// storms through queues, and same-timestamp scheduling.  Run it under
// -race to check that the coroutine switch is a sufficient
// happens-before edge (engine state is only ever touched by the
// coroutine in control, or by Run's loop between two of them).
func TestHandoffStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := NewEngine()
		var q Queue
		const workers = 16
		for i := 0; i < workers; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 30; j++ {
					switch (i + j) % 3 {
					case 0:
						p.Hold(Time(1 + j%5))
					case 1:
						q.Wait(p)
					default:
						p.Defer(2)
						yield(p)
						for wakeOne(&q) {
						}
					}
				}
				for wakeOne(&q) {
				}
			})
		}
		// A closer that periodically drains the queue until every worker
		// has terminated, so no round ends in a (deliberate) deadlock.
		e.Spawn("closer", func(p *Proc) {
			for e.nLive > 1 {
				p.Hold(1000)
				q.WakeAll()
			}
		})
		if err := e.Run(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
