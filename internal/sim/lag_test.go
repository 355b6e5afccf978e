package sim

import (
	"testing"
	"testing/quick"
)

func TestDeferAdvancesLocalClockOnly(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Defer(100)
		if p.Now() != 100 {
			t.Errorf("local now = %v, want 100", p.Now())
		}
		if e.Now() != 0 {
			t.Errorf("global now = %v, want 0", e.Now())
		}
		if p.lag != 100 {
			t.Errorf("lag = %v", p.lag)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferFoldsIntoNextHold(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Defer(100)
		p.Hold(50) // one event, landing at 150
		if p.Now() != 150 || p.lag != 0 {
			t.Errorf("now = %v, lag = %v", p.Now(), p.lag)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// start event + one combined hold event
	if e.Events != 2 {
		t.Errorf("events = %d, want 2", e.Events)
	}
}

func TestDeferCheaperThanHold(t *testing.T) {
	run := func(deferred bool) uint64 {
		e := NewEngine()
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 100; i++ {
				if deferred {
					p.Defer(10)
				} else {
					p.Hold(10)
				}
			}
			p.Hold(1)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Events
	}
	if d, h := run(true), run(false); d >= h {
		t.Errorf("deferred events %d not below held events %d", d, h)
	}
}

func TestDeferSameTimingAsHold(t *testing.T) {
	run := func(deferred bool) Time {
		e := NewEngine()
		var end Time
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 50; i++ {
				if deferred {
					p.Defer(Time(i))
				} else {
					p.Hold(Time(i))
				}
			}
			end = p.Now()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	if d, h := run(true), run(false); d != h {
		t.Errorf("deferred end %v != held end %v", d, h)
	}
}

func TestFlushLagMaterializes(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Defer(70)
		p.FlushLag()
		if p.lag != 0 || e.Now() != 70 || p.Now() != 70 {
			t.Errorf("after flush: lag=%v global=%v local=%v", p.lag, e.Now(), p.Now())
		}
		p.FlushLag() // no-op
		if e.Events != 2 {
			t.Errorf("events = %d, want 2 (start + flush)", e.Events)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHoldUntilClearsLag(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Defer(100)
		p.HoldUntil(300)
		if p.Now() != 300 || p.lag != 0 {
			t.Errorf("now=%v lag=%v", p.Now(), p.lag)
		}
		p.Defer(100)
		p.HoldUntil(350) // earlier than local 400: no-op
		if p.Now() != 400 {
			t.Errorf("now = %v, want 400", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueWaitFlushesBeforeEnqueue(t *testing.T) {
	// A lagging waiter must be woken reliably: Wait materializes the
	// lag before the process becomes visible to wakers.
	e := NewEngine()
	var q Queue
	woken := false
	e.Spawn("waiter", func(p *Proc) {
		p.Defer(500)
		q.Wait(p)
		woken = true
	})
	e.Spawn("waker", func(p *Proc) {
		p.Hold(1000)
		for q.WakeAll() == 0 {
			p.Hold(100)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !woken {
		t.Error("lagging waiter never woken")
	}
}

func TestLockAcquireWithLagIsFair(t *testing.T) {
	// A process with large deferred time contending for a lock must
	// not deadlock or double-acquire.
	e := NewEngine()
	var l Lock
	holds := 0
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Defer(Time(1000 * (i + 1)))
			l.Acquire(p)
			holds++
			p.Hold(10)
			l.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if holds != 4 {
		t.Errorf("holds = %d", holds)
	}
}

// Property: interleaving Defer and Hold arbitrarily, the final local
// clock equals the sum of all durations, and lag is always non-negative.
func TestDeferHoldEquivalenceProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		e := NewEngine()
		ok := true
		e.Spawn("a", func(p *Proc) {
			var want Time
			for _, op := range ops {
				d := Time(op % 64)
				want += d
				if op%2 == 0 {
					p.Defer(d)
				} else {
					p.Hold(d)
				}
				if p.Now() != want || p.lag < 0 {
					ok = false
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
