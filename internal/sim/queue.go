package sim

import (
	"math"
	"slices"
)

// The kernel's pending-event structure is pluggable: small runs use the
// concrete-typed binary heap (eventHeap, engine.go), large runs the
// ladder queue below.  Both pop events in exactly the same total
// (at, seq) order — the queue changes only *how* that order is produced,
// never the order itself — so the selection is invisible to results.
//
// Selection: Run picks the ladder up front when the run spawns at least
// ladderProcs processes, and the choice holds for the whole run (each
// process has at most one live pending event, so the process count is
// what sizes the backlog).  The threshold is a deliberate underestimate
// of where the heap's O(log n) starts to matter: the ladder is never
// worse than the heap by more than a small constant, so a premature
// selection costs little, while a missed one costs log n per event
// across tens of thousands of events.
const (
	// ladderProcs: a run with at least this many processes selects the
	// ladder queue at Run.
	ladderProcs = 256
	// ladderSpread: buckets at most this large are sorted straight into
	// the bottom run instead of spawning another rung.
	ladderSpread = 64
	// ladderBuckets: bucket count of a freshly spawned rung.
	ladderBuckets = 64
	// ladderMaxRungs bounds rung recursion; a bucket that would exceed
	// it is sorted directly, trading one large sort for unbounded depth.
	ladderMaxRungs = 8
)

// minTime is the pristine ladder's top threshold: every push lands in
// the unsorted top until the first consumption spreads it.
const minTime = Time(math.MinInt64)

// eventQueue is the pluggable pending-event structure of the kernel.
type eventQueue interface {
	push(ev event)
	// pop removes and returns the earliest event in (at, seq) order.
	// Call only when len() > 0.
	pop() event
	len() int
}

// peek returns the earliest event without removing it, or nil when the
// heap is empty; only the parallel kernel's span heap reads it.
func (h *eventHeap) peek() *event {
	if len(h.s) == 0 {
		return nil
	}
	return &h.s[0]
}

// reset empties the heap in place, clearing every retained slot so no
// *Proc stays reachable, while keeping the backing array for pooled reuse.
// Engine.Reset calls it, and the ladder's, on the concrete queues.
func (h *eventHeap) reset() {
	for i := range h.s {
		h.s[i] = event{}
	}
	h.s = h.s[:0]
}

// ladderQueue is a calendar-style priority queue (a ladder queue in the
// Tang/Perumalla sense) with O(1) amortized push and pop: an unsorted
// "top" catches far-future events, a stack of "rungs" — bucket arrays of
// geometrically decreasing width — partitions time as consumption
// approaches, and a small sorted "bottom" run is what pop actually
// drains.  Every event is touched a bounded number of times (append on
// push, one move per rung level it descends, one sort in a
// ladderSpread-bounded bucket), so the per-event cost stays flat as the
// pending-event count grows — unlike the heap's O(log n) sift.
//
// Ordering proof sketch (see docs/INTERNALS.md §13): the structures
// partition simulated time into disjoint intervals that are increasing
// in time order — bottom < rungs[last] < ... < rungs[0] < top — and pop
// consumes only from the sorted bottom.  A push either lands in the
// interval its timestamp belongs to, or (below every rung's consumption
// point) is sorted into the bottom run directly; within a bucket, events
// are ordered by a full (at, seq) sort when the bucket reaches the
// bottom.  Same-timestamp events therefore pop in seq order — the order
// they were scheduled in — and the total pop order equals the heap's.
type ladderQueue struct {
	n int // total pending events

	// bot is the sorted bottom run, ascending (at, seq), consumed from
	// botHead.  The slack left of botHead doubles as an O(1) landing
	// slot for pushes that precede every remaining bottom event.
	bot     []event
	botHead int

	// rungs[0] is the outermost (widest, latest) rung; the last entry is
	// the innermost, currently being consumed.  Retired rungs keep their
	// bucket arrays in the slice's capacity for reuse.
	rungs []ladderRung

	// top is the unsorted catch-all for events at or past topStart;
	// topMin/topMax are maintained on push and are meaningful only while
	// top is non-empty.
	top      []event
	topStart Time
	topMin   Time
	topMax   Time
}

// ladderRung is one bucket array: bucket i spans
// [start+i*width, start+(i+1)*width).  Buckets before cur are empty
// (already consumed or spread); n counts events in the rest.
type ladderRung struct {
	start Time
	width Time
	cur   int
	n     int
	bkt   [][]event
}

// curStart is the rung's consumption point: events at or past it still
// route into this rung, earlier ones belong to inner structures.
func (r *ladderRung) curStart() Time { return r.start + Time(r.cur)*r.width }

func (l *ladderQueue) len() int { return l.n }

func (l *ladderQueue) push(ev event) {
	l.n++
	if ev.at >= l.topStart {
		if len(l.top) == 0 {
			l.topMin, l.topMax = ev.at, ev.at
		} else if ev.at < l.topMin {
			l.topMin = ev.at
		} else if ev.at > l.topMax {
			l.topMax = ev.at
		}
		l.top = append(l.top, ev)
		return
	}
	// The rungs' live intervals decrease in time from rungs[0] down, so
	// the first rung whose consumption point the event has not passed is
	// the one it belongs to.
	for i := range l.rungs {
		r := &l.rungs[i]
		if ev.at >= r.curStart() {
			idx := int((ev.at - r.start) / r.width)
			if idx >= len(r.bkt) {
				idx = len(r.bkt) - 1
			}
			r.bkt[idx] = append(r.bkt[idx], ev)
			r.n++
			return
		}
	}
	l.insertBottom(ev)
}

// insertBottom places ev into the sorted bottom run.  The engine's seq
// counter is globally monotone, so a push always sorts after every
// queued event with the same timestamp; the binary search below honors
// full (at, seq) order regardless.
func (l *ladderQueue) insertBottom(ev event) {
	lo, hi := l.botHead, len(l.bot)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if less(&ev, &l.bot[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == l.botHead && l.botHead > 0 {
		// Precedes every remaining bottom event: reuse the consumed slot
		// to its left instead of shifting the run.
		l.botHead--
		l.bot[l.botHead] = ev
		return
	}
	l.bot = append(l.bot, event{})
	copy(l.bot[lo+1:], l.bot[lo:])
	l.bot[lo] = ev
}

func (l *ladderQueue) pop() event {
	if l.botHead == len(l.bot) {
		l.surface()
	}
	ev := l.bot[l.botHead]
	l.bot[l.botHead] = event{} // no stale *Proc reference
	l.botHead++
	l.n--
	if l.botHead == len(l.bot) {
		l.bot = l.bot[:0]
		l.botHead = 0
	}
	return ev
}

// surface refills the empty bottom run from the innermost rung (or, with
// no rungs, by spreading the top), so that the earliest pending events
// become a sorted run.  Buckets small enough — or too fine to split
// further — are sorted straight into the bottom; larger ones spawn a
// finer rung.
func (l *ladderQueue) surface() {
	for l.botHead == len(l.bot) {
		l.bot = l.bot[:0]
		l.botHead = 0
		if len(l.rungs) > 0 {
			ri := len(l.rungs) - 1
			r := &l.rungs[ri]
			if r.n == 0 {
				// Exhausted: retire the rung (its bucket arrays stay in
				// the slice capacity for the next spawn).
				l.rungs = l.rungs[:ri]
				continue
			}
			for len(r.bkt[r.cur]) == 0 {
				r.cur++
			}
			b := r.bkt[r.cur]
			if len(b) <= ladderSpread || r.width <= 1 || len(l.rungs) >= ladderMaxRungs {
				l.bot = append(l.bot, b...)
				clearEvents(b)
				r.bkt[r.cur] = b[:0]
				r.n -= len(l.bot)
				r.cur++
				sortEvents(l.bot)
				continue
			}
			l.spread(ri)
			continue
		}
		if len(l.top) > 0 {
			l.spreadTop()
			continue
		}
		return // empty queue
	}
}

// spread spawns a finer rung from bucket cur of rung ri.
func (l *ladderQueue) spread(ri int) {
	r := &l.rungs[ri]
	b := r.bkt[r.cur]
	start := r.curStart()
	width := (r.width + ladderBuckets - 1) / ladderBuckets
	if width < 1 {
		width = 1
	}
	nb := int((r.width + width - 1) / width)
	r.bkt[r.cur] = b[:0]
	r.n -= len(b)
	r.cur++
	nr := l.addRung(start, width, nb) // may grow l.rungs: r is dead now
	for _, ev := range b {
		idx := int((ev.at - start) / width)
		if idx >= len(nr.bkt) {
			idx = len(nr.bkt) - 1
		}
		nr.bkt[idx] = append(nr.bkt[idx], ev)
	}
	nr.n = len(b)
	clearEvents(b)
}

// spreadTop converts the unsorted top into rung 0 and re-arms the top
// for events past the spread range.
func (l *ladderQueue) spreadTop() {
	span := l.topMax - l.topMin + 1
	width := (span + ladderBuckets - 1) / ladderBuckets
	if width < 1 {
		width = 1
	}
	nb := int((span + width - 1) / width)
	nr := l.addRung(l.topMin, width, nb)
	for _, ev := range l.top {
		idx := int((ev.at - nr.start) / nr.width)
		if idx >= len(nr.bkt) {
			idx = len(nr.bkt) - 1
		}
		nr.bkt[idx] = append(nr.bkt[idx], ev)
	}
	nr.n = len(l.top)
	l.topStart = nr.start + nr.width*Time(nb)
	clearEvents(l.top)
	l.top = l.top[:0]
}

// addRung pushes a fresh rung, reviving a retired rung's bucket arrays
// when the slice capacity holds one.
func (l *ladderQueue) addRung(start, width Time, nb int) *ladderRung {
	if n := len(l.rungs); n < cap(l.rungs) {
		l.rungs = l.rungs[:n+1]
	} else {
		l.rungs = append(l.rungs, ladderRung{})
	}
	r := &l.rungs[len(l.rungs)-1]
	r.start, r.width, r.cur, r.n = start, width, 0, 0
	if cap(r.bkt) >= nb {
		r.bkt = r.bkt[:nb]
	} else {
		r.bkt = r.bkt[:cap(r.bkt)]
		for len(r.bkt) < nb {
			r.bkt = append(r.bkt, nil)
		}
	}
	for i := range r.bkt {
		if r.bkt[i] != nil {
			r.bkt[i] = r.bkt[i][:0]
		}
	}
	return r
}

// reset empties the ladder in place as eventHeap.reset does the heap.
func (l *ladderQueue) reset() {
	clearEvents(l.bot)
	l.bot = l.bot[:0]
	l.botHead = 0
	for i := range l.rungs {
		r := &l.rungs[i]
		for j := range r.bkt {
			clearEvents(r.bkt[j])
			r.bkt[j] = r.bkt[j][:0]
		}
		r.cur, r.n = 0, 0
	}
	l.rungs = l.rungs[:0]
	clearEvents(l.top)
	l.top = l.top[:0]
	l.topStart = minTime
	l.n = 0
}

func clearEvents(s []event) {
	for i := range s {
		s[i] = event{}
	}
}

// sortEvents orders a bucket by the kernel's total (at, seq) order.
func sortEvents(s []event) {
	slices.SortFunc(s, func(a, b event) int {
		switch {
		case a.at != b.at:
			if a.at < b.at {
				return -1
			}
			return 1
		case a.seq < b.seq:
			return -1
		case a.seq > b.seq:
			return 1
		}
		return 0
	})
}

// escalate switches the sequential pending queue from the binary heap to
// the ladder queue, migrating any queued events.  The pop order is
// unchanged — both structures produce the same total (at, seq) order —
// so escalation is invisible to results.
func (e *Engine) escalate() {
	for i := range e.heap.s {
		e.lad.push(e.heap.s[i])
		e.heap.s[i] = event{}
	}
	e.heap.s = e.heap.s[:0]
	e.q = &e.lad
}
