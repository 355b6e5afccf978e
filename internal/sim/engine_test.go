package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{1, 660},
		{1.6, 1056}, // LogP L parameter
		{0.05, 33},  // one byte at 20 MB/s
		{3.2, 2112}, // full-network g numerator
		{0.8, 528},  // mesh g coefficient
		{0, 0},
		{10.5, 6930},
	}
	for _, c := range cases {
		if got := Micros(c.us); got != c.want {
			t.Errorf("Micros(%v) = %v, want %v", c.us, got, c.want)
		}
	}
	if got := Cycles(1); got != 20 {
		t.Errorf("Cycles(1) = %v, want 20", got)
	}
	if got := Micros(1.6).Micros(); got != 1.6 {
		t.Errorf("round-trip 1.6us = %v", got)
	}
	if s := Micros(1.6).String(); s != "1.600us" {
		t.Errorf("String() = %q", s)
	}
	if Cycle*33 != SerialByte*20 {
		t.Errorf("unit mismatch: 33 cycles (1us) should equal 20 byte-times (1us)")
	}
}

func TestHoldAdvancesTime(t *testing.T) {
	e := NewEngine()
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Hold(Micros(5))
		p.Hold(Cycles(10))
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := Micros(5) + Cycles(10)
	if end != want {
		t.Errorf("end time = %v, want %v", end, want)
	}
	if e.Now() != want {
		t.Errorf("engine now = %v, want %v", e.Now(), want)
	}
}

func TestHoldNonPositive(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		p.Hold(0)
		p.Hold(-5)
		if p.Now() != 0 {
			t.Errorf("time advanced by non-positive hold: %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for step := 0; step < 3; step++ {
					p.Hold(Time(10 * (i + 1)))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		if got := run(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("nondeterministic interleaving:\n%v\nvs\n%v", first, got)
		}
	}
}

func TestTieBreakIsSpawnOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(100) // all wake at the same instant
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie broken out of spawn order: %v", order)
		}
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var q Queue
	e.Spawn("waiter", func(p *Proc) { q.Wait(p) })
	err := e.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Procs) != 1 || dl.Procs[0] != "waiter" {
		t.Errorf("deadlock procs = %v", dl.Procs)
	}
	if dl.Error() == "" {
		t.Error("empty error string")
	}
}

// wakeOne wakes q's longest-waiting process, if any, the way Lock's
// release hands over, and reports whether one was woken.
func wakeOne(q *Queue) bool {
	if q.Len() == 0 {
		return false
	}
	q.pop().Wake()
	return true
}

// yield reschedules p at its local time behind every process already
// scheduled there.
func yield(p *Proc) {
	at := p.eng.now + p.lag
	p.lag = 0
	p.eng.schedule(at, p)
	p.block("yield")
}

func TestQueueWakeOneFIFO(t *testing.T) {
	e := NewEngine()
	var q Queue
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			q.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		p.Hold(10)
		for wakeOne(&q) {
			p.Hold(10)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Errorf("wake order = %v", order)
	}
}

func TestQueueWaitReportsTime(t *testing.T) {
	e := NewEngine()
	var q Queue
	var waited Time
	e.Spawn("w", func(p *Proc) { waited = q.Wait(p) })
	e.Spawn("s", func(p *Proc) {
		p.Hold(123)
		q.WakeAll()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 123 {
		t.Errorf("waited = %v, want 123", waited)
	}
}

func TestLockMutualExclusionAndFairness(t *testing.T) {
	e := NewEngine()
	var l Lock
	inside := 0
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			l.Acquire(p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, name)
			p.Hold(50)
			inside--
			l.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[a b c]" {
		t.Errorf("acquisition order = %v", order)
	}
	if l.Held() {
		t.Error("lock still held after run")
	}
}

func TestLockWaitTimes(t *testing.T) {
	e := NewEngine()
	var l Lock
	var waits []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			w := l.Acquire(p)
			waits = append(waits, w)
			p.Hold(100)
			l.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 100, 200}
	for i, w := range waits {
		if w != want[i] {
			t.Errorf("wait[%d] = %v, want %v", i, w, want[i])
		}
	}
}

func TestLockPanicsOnMisuse(t *testing.T) {
	e := NewEngine()
	var l Lock
	e.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic on release-by-non-holder")
			}
		}()
		l.Release(p)
	})
	_ = e.Run()
}

func TestBarrierReleasesTogether(t *testing.T) {
	const n = 5
	e := NewEngine()
	b := NewBarrier(n)
	var releaseTimes []Time
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Hold(Time(10 * (i + 1)))
			b.Arrive(p)
			releaseTimes = append(releaseTimes, p.Now())
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, rt := range releaseTimes {
		if rt != 50 { // the slowest arrival
			t.Errorf("release at %v, want 50", rt)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	const n, rounds = 3, 4
	e := NewEngine()
	b := NewBarrier(n)
	counts := make([]int, rounds)
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Hold(Time(rand.New(rand.NewSource(int64(i*10+r))).Intn(50) + 1))
				b.Arrive(p)
				counts[r]++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for r, c := range counts {
		if c != n {
			t.Errorf("round %d count = %d, want %d", r, c, n)
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	childRan := false
	e.Spawn("parent", func(p *Proc) {
		p.Hold(10)
		e.Spawn("child", func(c *Proc) {
			if c.Now() != 10 {
				t.Errorf("child started at %v, want 10", c.Now())
			}
			childRan = true
		})
		p.Hold(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child never ran")
	}
}

func TestWakeNonParkedPanics(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("no panic waking non-parked process")
			}
		}()
		p.Wake()
	})
	_ = e.Run()
}

func TestProcessPanicBecomesRunError(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Hold(1000) })
	e.Spawn("boom", func(p *Proc) {
		p.Hold(10)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("panic not surfaced")
	}
	if got := err.Error(); !strings.Contains(got, "boom") || !strings.Contains(got, "kaboom") {
		t.Errorf("error %q missing context", got)
	}
}

func TestEventCountMonotone(t *testing.T) {
	e := NewEngine()
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Hold(5)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 start event + 10 holds
	if e.Events != 11 {
		t.Errorf("Events = %d, want 11", e.Events)
	}
}

// Property: for any set of hold durations, processes finish at the sum of
// their holds, and the engine clock ends at the maximum finish time.
func TestHoldSumProperty(t *testing.T) {
	f := func(durs [][]uint16) bool {
		if len(durs) == 0 || len(durs) > 16 {
			return true
		}
		e := NewEngine()
		finish := make([]Time, len(durs))
		var wantMax Time
		for i, ds := range durs {
			if len(ds) > 64 {
				ds = ds[:64]
			}
			i, ds := i, ds
			var sum Time
			for _, d := range ds {
				sum += Time(d)
			}
			if sum > wantMax {
				wantMax = sum
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for _, d := range ds {
					p.Hold(Time(d))
				}
				finish[i] = p.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		for i, ds := range durs {
			if len(ds) > 64 {
				ds = ds[:64]
			}
			var sum Time
			for _, d := range ds {
				sum += Time(d)
			}
			if finish[i] != sum {
				return false
			}
		}
		return e.Now() == wantMax
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: timestamps observed by any single process are non-decreasing.
func TestTimeMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ok := true
		var l Lock
		b := NewBarrier(4)
		for i := 0; i < 4; i++ {
			durs := make([]Time, 20)
			for j := range durs {
				durs[j] = Time(rng.Intn(100))
			}
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				last := p.Now()
				for _, d := range durs {
					p.Hold(d)
					l.Acquire(p)
					p.Hold(1)
					l.Release(p)
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
				b.Arrive(p)
				if p.Now() < last {
					ok = false
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
