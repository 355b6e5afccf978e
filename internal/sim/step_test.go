package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// stepFunc adapts a function to Stepper.
type stepFunc func(p *Proc) (Time, bool)

func (f stepFunc) Step(p *Proc) (Time, bool) { return f(p) }

// hops is a process that defers think, then sleeps until think+gap later,
// n times — the shape of a reference stream on a machine priced at
// issue.  spawn starts it on e either as a coroutine around HoldUntil or
// as a step function; visit sees every resumption.
type hops struct {
	n          int
	think, gap Time
}

func (h hops) spawn(e *Engine, stackless bool, visit func(p *Proc)) {
	if !stackless {
		e.SpawnIndexed("hop", func(p *Proc) {
			for i := 0; i < h.n; i++ {
				visit(p)
				p.Defer(h.think)
				p.HoldUntil(p.Now() + h.gap)
			}
			visit(p)
		})
		return
	}
	left := h.n
	e.SpawnStep("hop", stepFunc(func(p *Proc) (Time, bool) {
		for {
			visit(p)
			if left == 0 {
				return 0, true
			}
			left--
			p.Defer(h.think)
			if h.gap > 0 { // HoldUntil(Now()) does not sleep
				return p.Now() + h.gap, false
			}
		}
	}))
}

// TestStepMatchesCoroutine: a step function makes the engine calls a
// coroutine looping over HoldUntil makes, so a run is the same run
// whichever body its processes have — same dispatch order, same event
// count, same sequence numbers — including beside ordinary coroutines
// that park and wake, and on the ladder queue.
func TestStepMatchesCoroutine(t *testing.T) {
	type visit struct {
		at  Time
		lag Time
		id  int
	}
	for _, procs := range []int{5, ladderProcs + 3} {
		run := func(stackless bool) ([]visit, uint64, uint64, Time) {
			e := NewEngine()
			var trace []visit
			see := func(p *Proc) { trace = append(trace, visit{e.Now(), p.lag, p.ID}) }
			var q Queue
			e.Spawn("waiter", func(p *Proc) {
				q.Wait(p)
				see(p)
				p.Hold(3)
			})
			for i := 0; i < procs; i++ {
				// Equal gaps collide on timestamps; a zero gap never sleeps.
				hops{n: 6, think: Time(i % 3), gap: Time(7 * (i % 4))}.spawn(e, stackless, see)
			}
			e.Spawn("waker", func(p *Proc) {
				p.Hold(20)
				q.WakeAll()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			return trace, e.Events, e.seq, e.Now()
		}
		ct, cev, cseq, cend := run(false)
		st, sev, sseq, send := run(true)
		if cev != sev || cseq != sseq || cend != send {
			t.Errorf("%d processes: coroutines ran %d events, seq %d, to %v; steps %d, %d, %v", procs, cev, cseq, cend, sev, sseq, send)
		}
		if !reflect.DeepEqual(ct, st) {
			t.Errorf("%d processes: dispatch order differs between coroutine and step bodies", procs)
		}
	}
}

// TestStepCannotBlock: every blocking kernel call, made from a step
// function, fails the run with an error naming the process and the call —
// not a nil dereference — and the run's other processes are unwound.
func TestStepCannotBlock(t *testing.T) {
	for _, c := range []struct {
		call  string
		block func(p *Proc)
	}{
		{"Hold", func(p *Proc) { p.Hold(5) }},
		{"HoldUntil", func(p *Proc) { p.HoldUntil(p.Now() + 5) }},
		{"FlushLag", func(p *Proc) { p.Defer(5); p.FlushLag() }},
		{"Park", func(p *Proc) { p.Park() }},
		{"Park", func(p *Proc) { new(Queue).Wait(p) }},
		{"Park", func(p *Proc) { NewBarrier(2).Arrive(p) }},
	} {
		base := runtime.NumGoroutine()
		e := NewEngine()
		var parked Queue
		e.Spawn("parked", func(p *Proc) { parked.Wait(p) })
		e.SpawnStep("s", stepFunc(func(p *Proc) (Time, bool) {
			c.block(p)
			return 0, true
		}))
		err := e.Run()
		want := fmt.Sprintf(`process "s1" panicked at 0.000us: sim: stackless process "s1" called %s`, c.call)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s from a step: run returned %v, want an error containing %q", c.call, err, want)
		}
		if !allTerminated(e) {
			t.Errorf("%s from a step: run left live processes", c.call)
		}
		settleGoroutines(t, base)
	}
}

// TestStepPanicFailsRun: a panic inside a step is a process failure like
// any other — same error, and every other process, stackless or not, is
// terminated before Run returns.
func TestStepPanicFailsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var q Queue
	e.Spawn("parked", func(p *Proc) { q.Wait(p) })
	e.Spawn("sleeper", func(p *Proc) { p.Hold(1e6) })
	hops{n: 1 << 30, gap: 7}.spawn(e, true, func(*Proc) {})
	e.SpawnStep("boom", stepFunc(func(p *Proc) (Time, bool) {
		if e.Now() < 10 {
			return 10, false
		}
		panic("kaboom")
	}))
	err := e.Run()
	if want := `sim: process "boom3" panicked at 0.015us: kaboom`; err == nil || err.Error() != want {
		t.Fatalf("run returned %v, want %s", err, want)
	}
	if !allTerminated(e) {
		t.Fatal("failed run left live processes")
	}
	settleGoroutines(t, base)
}

// TestStepAbort: an interrupt ends each stackless process at its next
// event.  There is nothing to unwind, and
// never was a goroutine: the count does not move, during or after.
func TestStepAbort(t *testing.T) {
	var ab *AbortError
	for _, c := range []struct {
		name  string
		arm   func(e *Engine)
		check func(err error) bool
	}{
		{"interrupt", func(e *Engine) {
			e.SpawnStep("killer", stepFunc(func(p *Proc) (Time, bool) {
				if e.Now() < 100 {
					return 100, false
				}
				e.Interrupt()
				return 0, true
			}))
		}, func(err error) bool { return errors.As(err, &ab) && ab.At >= 100 }},
		{"interrupt-before-run", func(e *Engine) { e.Interrupt() }, func(err error) bool { return errors.As(err, &ab) && ab.At == 0 }},
	} {
		e := NewEngine()
		base := runtime.NumGoroutine()
		during := base // a run aborted before its first event visits nothing
		for i := 0; i < 64; i++ {
			hops{n: 1 << 30, think: 1, gap: Time(3 + i%5)}.spawn(e, true, func(*Proc) { during = runtime.NumGoroutine() })
		}
		c.arm(e)
		if err := e.Run(); !c.check(err) {
			t.Errorf("%s: run returned %v", c.name, err)
		}
		if !allTerminated(e) {
			t.Errorf("%s: run left live processes", c.name)
		}
		if after := runtime.NumGoroutine(); during != base || after != base {
			t.Errorf("%s: %d goroutines before the run, %d during, %d after", c.name, base, during, after)
		}

		// The aborted engine resets to a clean one: the next run — which
		// may be parallel again — sees nothing of the stackless one.
		e.Reset()
		for i := 0; i < 4; i++ {
			hops{n: 3, gap: 5}.spawn(e, true, func(*Proc) {})
		}
		e.SetParallel(2)
		if err := e.Run(); err != nil || !e.ParReport().Parallel || e.Now() != 15 {
			t.Errorf("%s: run after Reset: err %v, report %+v, ended at %v", c.name, err, e.ParReport(), e.Now())
		}
	}
}

// TestStepRunsSequentially: a parallel window runs step functions only;
// stackless processes beside a coroutine run sequentially, and the run
// says why.
func TestStepRunsSequentially(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 4; i++ {
		hops{n: 3, gap: 5}.spawn(e, i%2 == 0, func(*Proc) {})
	}
	e.SetParallel(2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if rep := e.ParReport(); rep.Parallel || rep.Fallback != NotStackless {
		t.Errorf("report %+v, want a sequential run with fallback %s", rep, NotStackless)
	}
}

// TestProcHotFieldsFitOneLine: what an event of a stackless process reads
// and writes in its Proc — the engine, the body, the live seq, the two
// clocks, the flags — lies in the first 64 bytes, one host cache line's
// worth; an event is 24 bytes; and the Procs of SpawnStep come out of the
// engine's slab next to one another, not one object each.
func TestProcHotFieldsFitOneLine(t *testing.T) {
	var p Proc
	for _, f := range []struct {
		name      string
		off, size uintptr
	}{
		{"eng", unsafe.Offsetof(p.eng), unsafe.Sizeof(p.eng)},
		{"step", unsafe.Offsetof(p.step), unsafe.Sizeof(p.step)},
		{"live", unsafe.Offsetof(p.live), unsafe.Sizeof(p.live)},
		{"lag", unsafe.Offsetof(p.lag), unsafe.Sizeof(p.lag)},
		{"sched", unsafe.Offsetof(p.sched), unsafe.Sizeof(p.sched)},
		{"parked", unsafe.Offsetof(p.parked), unsafe.Sizeof(p.parked)},
		{"terminated", unsafe.Offsetof(p.terminated), unsafe.Sizeof(p.terminated)},
		{"resuming", unsafe.Offsetof(p.resuming), unsafe.Sizeof(p.resuming)},
	} {
		if f.off+f.size > 64 {
			t.Errorf("Proc.%s ends at byte %d, past the first 64", f.name, f.off+f.size)
		}
	}
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Errorf("an event is %d bytes, want 24: at, seq and the *Proc", size)
	}

	e := NewEngine()
	quit := stepFunc(func(*Proc) (Time, bool) { return 0, true })
	procs := make([]*Proc, 3*minSlab)
	for i := range procs {
		procs[i] = e.SpawnStep("s", quit)
	}
	for i := 1; i < minSlab; i++ {
		if got := uintptr(unsafe.Pointer(procs[i])) - uintptr(unsafe.Pointer(procs[i-1])); got != unsafe.Sizeof(p) {
			t.Fatalf("stackless Procs %d and %d lie %d bytes apart, want %d: not from one slab", i-1, i, got, unsafe.Sizeof(p))
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// A pooled engine hands the same slots out again, zeroed, each live
	// on the seq of its first event.
	e.Reset()
	if allocs := testing.AllocsPerRun(1, func() {
		for i := range procs {
			if p := e.SpawnStep("s", quit); p != procs[i] || p.live != e.seq || p.terminated {
				t.Fatalf("after Reset, stackless Proc %d is %p (live %d, first event seq %d), was %p", i, p, p.live, e.seq, procs[i])
			}
		}
		e.Reset()
	}); allocs != 0 {
		t.Errorf("respawning %d stackless processes on a reset engine allocated %v objects", len(procs), allocs)
	}
}
