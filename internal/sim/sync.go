package sim

// This file provides engine-level synchronization objects.  They cost no
// simulated resources themselves (no memory traffic, no network traffic):
// they exist to order processes and to measure waiting time.  Memory-
// traffic-generating synchronization (spin locks, flags, barriers built
// from shared variables) lives in internal/app and is layered on top of
// these primitives plus simulated memory accesses.
//
// They are straight-line code: the sequential kernel runs one process at
// a time, and a parallel window (parallel.go) runs only step functions,
// which never wait.

// Queue is a FIFO wait queue of parked processes.  The waiters are
// waiters[head:]; a slot is cleared as its waiter leaves, so a drained
// queue pins no *Proc, and the backing array is reused rather than
// slid along and reallocated.
type Queue struct {
	waiters []*Proc
	head    int
}

// Len reports the number of waiting processes.
func (q *Queue) Len() int { return len(q.waiters) - q.head }

// push appends p, first moving the waiters down to the front when the
// array is full to its end but not from its start.
func (q *Queue) push(p *Proc) {
	if q.head > 0 && len(q.waiters) == cap(q.waiters) {
		n := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[n:])
		q.waiters, q.head = q.waiters[:n], 0
	}
	q.waiters = append(q.waiters, p)
}

// pop removes and returns the longest waiter; the queue must not be
// empty.
func (q *Queue) pop() *Proc {
	w := q.waiters[q.head]
	q.waiters[q.head] = nil
	q.head++
	if q.head == len(q.waiters) {
		q.waiters, q.head = q.waiters[:0], 0
	}
	return w
}

// Wait parks the calling process on the queue until woken, and returns
// the simulated time spent waiting.  Deferred local time is materialized
// before the process becomes visible to wakers.
func (q *Queue) Wait(p *Proc) Time {
	p.FlushLag()
	t0 := p.Now()
	q.push(p)
	p.Park()
	return p.Now() - t0
}

// WakeAll wakes every waiting process, in FIFO order, and returns how
// many were woken.
func (q *Queue) WakeAll() int {
	n := q.Len()
	for _, w := range q.waiters[q.head:] {
		w.Wake()
	}
	clear(q.waiters)
	q.waiters, q.head = q.waiters[:0], 0
	return n
}

// Lock is a FIFO mutual-exclusion lock in simulated time.  Zero value is
// an unlocked lock.
type Lock struct {
	holder *Proc
	q      Queue
}

// Held reports whether the lock is currently held.
func (l *Lock) Held() bool { return l.holder != nil }

// Acquire takes the lock, parking the caller until it is available, and
// returns the simulated time spent waiting.  Ownership transfers
// directly to the longest waiter on Release, so acquisition is FIFO-fair
// and deterministic.
func (l *Lock) Acquire(p *Proc) Time {
	switch l.holder {
	case nil:
		l.holder = p
		return 0
	case p:
		panic("sim: recursive Lock.Acquire by " + p.Name())
	}
	// Contended: materialize deferred local time, re-check (the lock
	// may have been released while we flushed), then queue up.
	t0 := p.Now()
	p.FlushLag()
	if l.holder == nil {
		l.holder = p
		return p.Now() - t0
	}
	l.q.push(p)
	p.Park()
	// Release transferred ownership to us before waking us.
	return p.Now() - t0
}

// Release hands the lock to the longest waiter, or unlocks it if none.
func (l *Lock) Release(p *Proc) {
	if l.holder != p {
		panic("sim: Lock.Release by non-holder " + p.Name())
	}
	if l.q.Len() == 0 {
		l.holder = nil
		return
	}
	next := l.q.pop()
	l.holder = next
	next.Wake()
}

// Barrier synchronizes a fixed party of N processes in simulated time.
type Barrier struct {
	n       int
	arrived int
	q       Queue
}

// NewBarrier returns a barrier for n participants (n >= 1).
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic("sim: NewBarrier with n < 1")
	}
	return &Barrier{n: n}
}

// Arrive blocks until all n participants have arrived, then releases
// them all; it returns the simulated time the caller spent waiting.
// The barrier resets automatically and may be reused.
func (b *Barrier) Arrive(p *Proc) Time {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.q.WakeAll()
		return 0
	}
	return b.q.Wait(p)
}
