package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// differentialStream replays one randomized push/pop stream through the
// binary heap and the ladder queue and requires identical behavior at
// every step: same pops (at, seq, proc), same lengths.  The stream respects the kernel's invariants — pushes
// never go behind the time of the last popped event, and seq is
// globally monotone — which are exactly the conditions the ladder's
// ordering argument relies on.
func differentialStream(t *testing.T, rng *rand.Rand, h *eventHeap, l *ladderQueue, steps int) {
	t.Helper()
	var (
		now Time
		seq uint64
	)
	procs := make([]*Proc, 16)
	for i := range procs {
		procs[i] = &Proc{name: fmt.Sprintf("q%d", i)}
	}
	push := func(at Time) {
		seq++
		ev := event{at: at, seq: seq, p: procs[rng.Intn(len(procs))]}
		h.push(ev)
		l.push(ev)
	}
	// delta draws a time increment from one of several shapes so the
	// stream exercises same-timestamp storms, dense near-future activity,
	// and far-future outliers (deep rung recursion) in one run.
	delta := func() Time {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return 0 // a same-timestamp storm
		case 3, 4, 5:
			return Time(rng.Intn(8))
		case 6, 7:
			return Time(rng.Intn(1000))
		case 8:
			return Time(rng.Intn(1_000_000))
		default:
			return Time(rng.Int63n(1_000_000_000_000))
		}
	}
	for i := 0; i < steps; i++ {
		if h.len() != l.len() {
			t.Fatalf("step %d: length diverged: heap %d, ladder %d", i, h.len(), l.len())
		}
		if op := rng.Intn(9); op < 5 || h.len() == 0 {
			push(now + delta())
		} else {
			a, b := h.pop(), l.pop()
			if a != b {
				t.Fatalf("step %d: pop diverged: heap (at=%v seq=%d %s), ladder (at=%v seq=%d %s)",
					i, a.at, a.seq, a.p.Name(), b.at, b.seq, b.p.Name())
			}
			if a.at < now {
				t.Fatalf("step %d: pop went backwards: %v < %v", i, a.at, now)
			}
			now = a.at
		}
	}
	// Drain both completely: the tail must agree event for event.
	for h.len() > 0 {
		if a, b := h.pop(), l.pop(); a != b {
			t.Fatalf("drain: pop diverged: heap seq=%d, ladder seq=%d", a.seq, b.seq)
		}
	}
	if l.len() != 0 {
		t.Fatalf("drain: ladder still holds %d events after heap emptied", l.len())
	}
}

// TestQueueDifferential is the equivalence proof by replay: identical
// randomized streams through both eventQueue implementations, across
// many seeds, with reset-reuse rounds in between (the same objects are
// reused after reset, as a pooled engine reuses them).
func TestQueueDifferential(t *testing.T) {
	var h eventHeap
	var l ladderQueue
	l.topStart = minTime
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		differentialStream(t, rng, &h, &l, 4000)
		// Reset reuse: both queues must behave identically when reused,
		// with no event from the previous round surviving.
		h.reset()
		l.reset()
		if h.len() != 0 || l.len() != 0 {
			t.Fatalf("seed %d: reset left events behind (heap %d, ladder %d)", seed, h.len(), l.len())
		}
	}
}

// TestLadderOrderProperty drives the ladder alone through adversarial
// shapes — all-equal timestamps, unit steps, random interleaves, and a
// range wide enough to overflow ladderMaxRungs — asserting the popped
// sequence is exactly the total (at, seq) order of what was pushed.
func TestLadderOrderProperty(t *testing.T) {
	shapes := []struct {
		name string
		at   func(rng *rand.Rand, i int, now Time) Time
	}{
		{"equal", func(rng *rand.Rand, i int, now Time) Time { return now }},
		{"unit-steps", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(2)) }},
		{"clustered", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(5)*1000) }},
		{"wide", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Int63n(1<<50)) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			var l ladderQueue
			l.topStart = minTime
			p := &Proc{name: "x"}
			var now Time
			var seq uint64
			pending := 0
			var lastAt Time
			var lastSeq uint64
			popped := 0
			for i := 0; i < 20000; i++ {
				if pending == 0 || rng.Intn(3) > 0 {
					seq++
					l.push(event{at: shape.at(rng, i, now), seq: seq, p: p})
					pending++
					continue
				}
				ev := l.pop()
				pending--
				if popped > 0 && (ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq)) {
					t.Fatalf("pop %d out of order: (%v, %d) after (%v, %d)",
						popped, ev.at, ev.seq, lastAt, lastSeq)
				}
				lastAt, lastSeq = ev.at, ev.seq
				popped++
				now = ev.at
			}
			for pending > 0 {
				ev := l.pop()
				pending--
				if ev.at < lastAt || (ev.at == lastAt && ev.seq <= lastSeq) {
					t.Fatalf("drain out of order: (%v, %d) after (%v, %d)", ev.at, ev.seq, lastAt, lastSeq)
				}
				lastAt, lastSeq = ev.at, ev.seq
			}
			if l.len() != 0 {
				t.Fatalf("ladder reports %d events after full drain", l.len())
			}
		})
	}
}

// TestLadderSelection pins the auto-selection contract: small runs stay
// on the heap and runs at ladderProcs and beyond start on the ladder —
// with identical results, which the goldens and the differential test
// above guarantee.
func TestLadderSelection(t *testing.T) {
	small := NewEngine()
	for i := 0; i < 8; i++ {
		small.Spawn(fmt.Sprintf("s%d", i), func(p *Proc) { p.Hold(3) })
	}
	if err := small.Run(); err != nil {
		t.Fatal(err)
	}
	if small.q != &small.heap {
		t.Fatal("small run escalated off the binary heap")
	}

	big := NewEngine()
	for i := 0; i < ladderProcs; i++ {
		big.Spawn(fmt.Sprintf("b%d", i), func(p *Proc) { p.Hold(3) })
	}
	if err := big.Run(); err != nil {
		t.Fatal(err)
	}
	if big.q != &big.lad {
		t.Fatal("large run did not select the ladder queue")
	}
	big.Reset()
	if big.q != &big.heap {
		t.Fatal("Reset did not restore the binary heap default")
	}
}

// TestParallelQueueRetention runs a parallel run large enough to select
// the ladder queue — which a window schedules into and releases from —
// and checks that no backing slot retains a *Proc afterwards: the
// parallel-mode counterpart of TestQueueRetainsNoProcsAfterRun, covering
// pooled reuse of engines whose last run was parallel.
func TestParallelQueueRetention(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 2*ladderProcs; i++ {
		hops{n: 5, think: Time(i % 3), gap: Time(10 + i%7)}.spawn(e, true, func(*Proc) {})
	}
	e.SetParallel(2)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.ParReport().Parallel {
		t.Fatal("run did not execute in parallel mode")
	}
	if e.q != &e.lad {
		t.Fatal("run did not select the ladder queue")
	}
	scanRetained(t, e, "after parallel run")
	e.Reset()
	scanRetained(t, e, "after parallel run + Reset")
}
