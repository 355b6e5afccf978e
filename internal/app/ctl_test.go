package app

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"spasm/internal/machine"
)

// spinnerProg runs forever, scheduling a real engine event per
// iteration (Compute alone only defers local time, which would never
// hand control back to the event loop); only an abort ends it.
func spinnerProg() Program {
	return &testProg{
		name:  "spinner",
		setup: func(*Ctx) {},
		body: func(p *Proc) {
			for {
				p.Compute(100)
				p.S.Hold(1)
			}
		},
	}
}

// settleGoroutines waits for the goroutine count to come back to (near)
// base — aborted process goroutines unwind asynchronously after the run
// returns.
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

func TestRunControlledTimeout(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := machine.Config{Kind: machine.Ideal, P: 4}
	_, err := Execute(spinnerProg(), cfg, Options{Control: RunControl{Timeout: 2 * time.Millisecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	settleGoroutines(t, base)
}

func TestRunControlledZeroValueCompletes(t *testing.T) {
	cfg := machine.Config{Kind: machine.Target, Topology: "full", P: 2}
	prog := &testProg{name: "ok", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(50) }}
	res, err := Execute(prog, cfg, Options{})
	if err != nil || res == nil {
		t.Fatalf("zero-control run failed: %v", err)
	}
}

// TestRunControlledGenerousTimeoutCompletes pins the timer-join
// handshake: a run that finishes before its (ample) deadline must
// succeed, and the stopped timer must not poison anything.
func TestRunControlledGenerousTimeoutCompletes(t *testing.T) {
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	prog := &testProg{name: "quick", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	for i := 0; i < 20; i++ {
		if _, err := Execute(prog, cfg, Options{Control: RunControl{Timeout: time.Minute}}); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestPooledDiscardOnAbort: an aborted pooled run must discard its
// context — half-finished engine/space/machine state never re-enters the
// freelist — while a subsequent clean run on the same pool still works.
func TestPooledDiscardOnAbort(t *testing.T) {
	pool := NewPool(4)
	cfg := machine.Config{Kind: machine.Ideal, P: 4}
	_, err := Execute(spinnerProg(), cfg, Options{Pool: pool, Control: RunControl{Timeout: 2 * time.Millisecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	st := pool.Stats()
	if st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after abort: %+v, want Discarded=1 Live=0", st)
	}

	prog := &testProg{name: "clean", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	if _, err := Execute(prog, cfg, Options{Pool: pool, Control: RunControl{Timeout: time.Minute}}); err != nil {
		t.Fatalf("clean run after discard: %v", err)
	}
	st = pool.Stats()
	if st.Live != 1 || st.Discarded != 1 {
		t.Fatalf("after clean run: %+v, want Live=1 Discarded=1", st)
	}
}

// TestPooledExpiredDeadline: a deadline that has expired before the
// event loop first polls its stop flag still aborts the run — the
// timer's callback may never get the P — with the timeout sentinel; the
// pooled context is discarded and the next run on the pool completes.
func TestPooledExpiredDeadline(t *testing.T) {
	pool := NewPool(4)
	cfg := machine.Config{Kind: machine.Target, Topology: "full", P: 4}
	prog := &testProg{name: "finite", setup: func(*Ctx) {}, body: func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Compute(100)
			p.S.Hold(1)
		}
	}}
	_, err := Execute(prog, cfg, Options{Pool: pool, Control: RunControl{Timeout: time.Nanosecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	if st := pool.Stats(); st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after abort: %+v, want Discarded=1 Live=0", st)
	}
	if _, err := Execute(prog, cfg, Options{Pool: pool}); err != nil {
		t.Fatalf("next run on the pool: %v", err)
	}
}

// TestPooledDiscardOnFailure: non-abort failures (a failed result check)
// also bypass the freelist.
func TestPooledDiscardOnFailure(t *testing.T) {
	pool := NewPool(4)
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	bad := &testProg{
		name:  "bad",
		setup: func(*Ctx) {},
		body:  func(p *Proc) { p.Compute(10) },
		check: func() error { return errors.New("wrong answer") },
	}
	if _, err := Execute(bad, cfg, Options{Pool: pool}); err == nil {
		t.Fatal("check failure not propagated")
	}
	if st := pool.Stats(); st.Discarded != 1 || st.Live != 0 {
		t.Fatalf("after failed run: %+v, want Discarded=1 Live=0", st)
	}
}

// TestPooledControlledNilPool falls back to unpooled controlled runs.
func TestPooledControlledNilPool(t *testing.T) {
	cfg := machine.Config{Kind: machine.Ideal, P: 2}
	_, err := Execute(spinnerProg(), cfg, Options{Control: RunControl{Timeout: 2 * time.Millisecond}})
	if !errors.Is(err, ErrRunTimeout) {
		t.Fatalf("want ErrRunTimeout, got %v", err)
	}
	prog := &testProg{name: "ok", setup: func(*Ctx) {}, body: func(p *Proc) { p.Compute(10) }}
	if _, err := Execute(prog, cfg, Options{}); err != nil {
		t.Fatalf("nil-pool zero-control run: %v", err)
	}
}
