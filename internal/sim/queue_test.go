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
		checkSeqOrdered(t, l)
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

// checkSeqOrdered fails the test unless every rung bucket and the top
// hold their events in ascending seq order: the invariant that lets a
// bucket of one timestamp reach the bottom run unsorted.
func checkSeqOrdered(t testing.TB, l *ladderQueue) {
	t.Helper()
	ordered := func(s []event, ri, bi int) {
		for i := 1; i < len(s); i++ {
			if s[i].seq <= s[i-1].seq {
				t.Fatalf("rung %d bucket %d (-1: the top): seq %d follows seq %d", ri, bi, s[i].seq, s[i-1].seq)
			}
		}
	}
	ordered(l.top, -1, -1)
	for ri := range l.rungs {
		for bi, b := range l.rungs[ri].bkt {
			ordered(b, ri, bi)
		}
	}
}

// TestLadderOrderProperty drives the ladder alone through adversarial
// shapes — all-equal timestamps, unit steps, random interleaves, a range
// wide enough to overflow ladderMaxRungs, and lockstep (4096 processes,
// each re-pushed at now plus one of two constants, so every timestamp
// holds a crowd) — asserting the popped sequence is exactly the total
// (at, seq) order of what was pushed, and every 1024th push that the
// buckets and the top are seq-ordered.
func TestLadderOrderProperty(t *testing.T) {
	shapes := []struct {
		name    string
		at      func(rng *rand.Rand, i int, now Time) Time
		backlog int // pending events kept: push below it, pop at it (0: random)
		steps   int
	}{
		{"equal", func(rng *rand.Rand, i int, now Time) Time { return now }, 0, 20000},
		{"unit-steps", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(2)) }, 0, 20000},
		{"clustered", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Intn(5)*1000) }, 0, 20000},
		{"wide", func(rng *rand.Rand, i int, now Time) Time { return now + Time(rng.Int63n(1<<50)) }, 0, 20000},
		{"lockstep", func(rng *rand.Rand, i int, now Time) Time { return now + []Time{300, 700}[rng.Intn(2)] }, 4096, 60000},
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
			for i := 0; i < shape.steps; i++ {
				if pending == 0 || pending < shape.backlog || shape.backlog == 0 && rng.Intn(3) > 0 {
					seq++
					l.push(event{at: shape.at(rng, i, now), seq: seq, p: p})
					pending++
					if seq%1024 == 0 {
						checkSeqOrdered(t, &l)
					}
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

// TestLadderGapPushes pushes into the two gaps a rung spread over the
// times its bucket holds leaves inside that bucket — [bucket start, rung
// min) and (rung max, bucket end) — while the inner rung still has
// buckets and again once it is exhausted but not yet retired, and
// requires every pop to equal the heap's.  Pushes behind the last pop
// are legal: the parallel kernel releases several events before it
// pushes their successors.
func TestLadderGapPushes(t *testing.T) {
	var h eventHeap
	var l ladderQueue
	l.topStart = minTime
	p := &Proc{name: "g"}
	var seq uint64
	push := func(ats ...Time) {
		for _, at := range ats {
			seq++
			h.push(event{at: at, seq: seq, p: p})
			l.push(event{at: at, seq: seq, p: p})
			checkSeqOrdered(t, &l)
		}
	}
	pop := func() Time {
		a, b := h.pop(), l.pop()
		if a != b {
			t.Fatalf("pop diverged: heap (at=%v seq=%d), ladder (at=%v seq=%d)", a.at, a.seq, b.at, b.seq)
		}
		return a.at
	}
	// The top spreads into 64 buckets of width 100; bucket [100, 200)
	// holds ten events at each of 130..139, more than ladderSpread, so it
	// spreads into a rung over [130, 139] whose last bucket runs to 200.
	push(0, 6399)
	for at := Time(130); at < 140; at++ {
		for i := 0; i < 10; i++ {
			push(at)
		}
	}
	if pop() != 0 || pop() != 130 {
		t.Fatal("setup: first pops are not 0 and 130")
	}
	inner := &l.rungs[len(l.rungs)-1]
	if len(l.rungs) != 2 || inner.start != 130 || inner.end != 200 || len(inner.bkt) != 10 {
		t.Fatalf("setup: inner rung start %v end %v with %d buckets, %d rungs",
			inner.start, inner.end, len(inner.bkt), len(l.rungs))
	}
	push(100, 129, 140, 185, 199) // the inner rung still has buckets
	for pop() < 139 {
	}
	inner = &l.rungs[len(l.rungs)-1]
	if len(l.rungs) != 2 || inner.cur != len(inner.bkt) || inner.curStart() != 200 {
		t.Fatalf("setup: inner rung at bucket %d of %d, %d rungs", inner.cur, len(inner.bkt), len(l.rungs))
	}
	push(110, 139, 150, 199, 200) // exhausted, not yet retired
	for h.len() > 0 {
		pop()
	}
	if l.len() != 0 {
		t.Fatalf("ladder holds %d events after the heap drained", l.len())
	}
}

// TestLadderWorkCounts pins the queue's work counters: two interleaved
// crowds, each at one timestamp, reach the bottom unsorted, one copy into
// rung 0 and one down to the bottom per event; a run on the heap counts
// nothing, and Reset zeroes the counts.
func TestLadderWorkCounts(t *testing.T) {
	var l ladderQueue
	l.topStart = minTime
	p := &Proc{name: "w"}
	for i := 0; i < 1000; i++ {
		l.push(event{at: Time(5 + 4*(i%2)), seq: uint64(i + 1), p: p})
	}
	for l.len() > 0 {
		l.pop()
	}
	if l.moves != 2000 || l.sorted != 0 {
		t.Errorf("two crowds: %d moves, %d sorted; want 2000 and 0", l.moves, l.sorted)
	}

	e := NewEngine()
	for i := 0; i < ladderProcs-1; i++ {
		e.Spawn(fmt.Sprintf("h%d", i), func(p *Proc) { p.Hold(Time(1 + p.ID%3)) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m, s := e.QueueWork(); m != 0 || s != 0 {
		t.Errorf("heap run: %d moves, %d sorted; want none", m, s)
	}
	e.Reset()
	for i := 0; i < ladderProcs; i++ {
		e.Spawn(fmt.Sprintf("l%d", i), func(p *Proc) { p.Hold(Time(1 + p.ID%3)) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if m, _ := e.QueueWork(); m == 0 {
		t.Error("ladder run counted no moves")
	}
	e.Reset()
	if m, s := e.QueueWork(); m != 0 || s != 0 {
		t.Errorf("after Reset: %d moves, %d sorted; want none", m, s)
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

// FuzzLadder decodes a byte script into pushes and pops and runs it
// through the ladder and the binary heap at once: every pop must agree,
// and every bucket and the top must stay seq-ordered after each push.
// Each op byte b acts on n = b>>3 + 1 events:
//
//	b&7 == 0  a storm: n pushes at now
//	b&7 == 1  lockstep: pop n, re-push each at its time plus 300 or
//	          700, by a bit of the next byte
//	b&7 == 2  clustered: n pushes at now plus d%8 thousand, plus d/8%4,
//	          d the next byte
//	b&7 == 3  wide: n pushes at now plus (i+1)·d, d the next four bytes
//	b&7 == 7  drain both and reset them, to be reused
//	otherwise pop n
//
// Pushes are never behind now, the last popped time; seq is monotone.
func FuzzLadder(f *testing.F) {
	lockstep := []byte{31 << 3, 31 << 3, 31 << 3, 31 << 3}
	for i := 0; i < 64; i++ {
		lockstep = append(lockstep, 31<<3|1, byte(i*37))
	}
	f.Add(lockstep)
	f.Add([]byte{8<<3 | 2, 5, 8<<3 | 2, 200, 3 << 3, 4<<3 | 3, 1, 2, 3, 4, 31 << 3, 9<<3 | 4, 7, 4, 5 << 3})
	f.Add([]byte{31<<3 | 3, 0xff, 0xff, 0xff, 0x7f, 31 << 3, 31<<3 | 5, 31<<3 | 1, 0xaa, 7})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		var (
			h   eventHeap
			l   ladderQueue
			now Time
			seq uint64
		)
		l.topStart = minTime
		p := &Proc{name: "f"}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		push := func(at Time) {
			seq++
			h.push(event{at: at, seq: seq, p: p})
			l.push(event{at: at, seq: seq, p: p})
			checkSeqOrdered(t, &l)
		}
		pop := func() Time {
			a, b := h.pop(), l.pop()
			if a != b {
				t.Fatalf("pop diverged: heap (at=%v seq=%d), ladder (at=%v seq=%d)", a.at, a.seq, b.at, b.seq)
			}
			if a.at < now {
				t.Fatalf("pop went backwards: %v < %v", a.at, now)
			}
			now = a.at
			return a.at
		}
		for len(script) > 0 {
			b := next()
			n := int(b>>3) + 1
			switch b & 7 {
			case 0:
				for i := 0; i < n; i++ {
					push(now)
				}
			case 1:
				bits := next()
				for i := 0; i < n && h.len() > 0; i++ {
					push(pop() + []Time{300, 700}[bits>>(i%8)&1])
				}
			case 2:
				d := next()
				for i := 0; i < n; i++ {
					push(now + Time(d%8)*1000 + Time(d/8%4))
				}
			case 3:
				d := Time(next()) | Time(next())<<8 | Time(next())<<16 | Time(next())<<24
				for i := 0; i < n; i++ {
					push(now + Time(i+1)*d)
				}
			case 7:
				for h.len() > 0 {
					pop()
				}
				h.reset()
				l.reset()
				now = 0
			default:
				for i := 0; i < n && h.len() > 0; i++ {
					pop()
				}
			}
			if h.len() != l.len() {
				t.Fatalf("length diverged: heap %d, ladder %d", h.len(), l.len())
			}
		}
		for h.len() > 0 {
			pop()
		}
		if l.len() != 0 {
			t.Fatalf("ladder holds %d events after the heap drained", l.len())
		}
	})
}
