package sim

// This file provides engine-level synchronization objects.  They cost no
// simulated resources themselves (no memory traffic, no network traffic):
// they exist to order processes and to measure waiting time.  Memory-
// traffic-generating synchronization (spin locks, flags, barriers built
// from shared variables) lives in internal/app and is layered on top of
// these primitives plus simulated memory accesses.
//
// Every touch of an object's shared fields happens inside an Ordered
// section so these primitives are safe (and bit-identical) under the
// parallel execution mode; in sequential mode Ordered is a direct call
// and the code below is exactly the pre-parallel implementation.
// Methods without a *Proc parameter (Queue.WakeOne/WakeAll/Remove,
// Semaphore.Release) must be called from inside an Ordered section of
// the calling process when a parallel run may be in flight.

// Queue is a FIFO wait queue of parked processes.
type Queue struct {
	waiters []*Proc
}

// Len reports the number of waiting processes.
func (q *Queue) Len() int { return len(q.waiters) }

// Wait parks the calling process on the queue until woken, and returns
// the simulated time spent waiting.  Deferred local time is materialized
// before the process becomes visible to wakers.
func (q *Queue) Wait(p *Proc) Time {
	p.FlushLag()
	t0 := p.Now()
	// Enqueue and park form one span (the grant persists from the
	// Ordered section through Park), so a waker can never observe the
	// process in the queue before it is parked.
	p.Ordered(func() { q.waiters = append(q.waiters, p) })
	p.Park()
	return p.Now() - t0
}

// WakeOne wakes the longest-waiting process, if any, and reports whether
// one was woken.
func (q *Queue) WakeOne() bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	w.Wake()
	return true
}

// WakeAll wakes every waiting process, in FIFO order, and returns how
// many were woken.
func (q *Queue) WakeAll() int {
	n := len(q.waiters)
	for _, w := range q.waiters {
		w.Wake()
	}
	q.waiters = q.waiters[:0]
	return n
}

// Remove drops p from the queue without waking it (used by primitives
// that implement timeouts or cancellation).  It reports whether p was
// queued.
func (q *Queue) Remove(p *Proc) bool {
	for i, w := range q.waiters {
		if w == p {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return true
		}
	}
	return false
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
	var taken, recursive bool
	p.Ordered(func() {
		switch l.holder {
		case nil:
			l.holder = p
			taken = true
		case p:
			recursive = true
		}
	})
	if recursive {
		panic("sim: recursive Lock.Acquire by " + p.Name())
	}
	if taken {
		return 0
	}
	// Contended: materialize deferred local time, re-check (the lock
	// may have been released while we flushed), then queue up.
	t0 := p.Now()
	p.FlushLag()
	p.Ordered(func() {
		if l.holder == nil {
			l.holder = p
			taken = true
			return
		}
		l.q.waiters = append(l.q.waiters, p)
	})
	if taken {
		return p.Now() - t0
	}
	p.Park()
	// Release transferred ownership to us before waking us.
	return p.Now() - t0
}

// Release hands the lock to the longest waiter, or unlocks it if none.
func (l *Lock) Release(p *Proc) {
	var bad bool
	p.Ordered(func() {
		if l.holder != p {
			bad = true
			return
		}
		if len(l.q.waiters) == 0 {
			l.holder = nil
			return
		}
		next := l.q.waiters[0]
		l.q.waiters = l.q.waiters[1:]
		l.holder = next
		next.Wake()
	})
	if bad {
		panic("sim: Lock.Release by non-holder " + p.Name())
	}
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
	var release bool
	p.Ordered(func() {
		b.arrived++
		if b.arrived == b.n {
			b.arrived = 0
			b.q.WakeAll()
			release = true
		}
	})
	if release {
		return 0
	}
	return b.q.Wait(p)
}

// Semaphore is a counting semaphore in simulated time.
type Semaphore struct {
	count int
	q     Queue
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(initial int) *Semaphore { return &Semaphore{count: initial} }

// Acquire decrements the count, parking the caller while it is zero.
// It returns the simulated time spent waiting.
func (s *Semaphore) Acquire(p *Proc) Time {
	var waited Time
	for {
		var got bool
		p.Ordered(func() {
			if s.count > 0 {
				s.count--
				got = true
			}
		})
		if got {
			return waited
		}
		waited += s.q.Wait(p)
	}
}

// Release increments the count and wakes one waiter, if any.
func (s *Semaphore) Release() {
	s.count++
	s.q.WakeOne()
}
