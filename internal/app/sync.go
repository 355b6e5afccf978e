package app

import (
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Synchronization objects built from simulated shared memory.
//
// A SpinLock is a test-test&set lock: waiters re-read the lock word (a
// cache hit while the holder keeps it, per Anderson's analysis cited by
// the paper) and attempt the set only when it appears free.  A Flag is
// the condition-variable idiom the paper's EP uses: spin-read a shared
// word until a producer writes it.  On the machines with caches, a
// waiter pays the network only for its first read (the miss) and the
// read after the producer's invalidating write — exactly the behaviour
// the paper describes; on the cache-less LogP machine every probe of a
// remotely homed word crosses the network.
//
// To keep simulation cost bounded, a waiter spins SpinRounds times and
// then parks until the releasing/setting processor's write, which also
// wakes parked waiters to re-probe.  The probes issued are the
// references the machine models price; parking itself is free and its
// duration is charged to the Sync bucket.

// Spin-wait tuning shared by all synchronization objects.
const (
	// SpinRounds is how many probe rounds a waiter performs before
	// parking.
	SpinRounds = 4
	// SpinCost is the loop overhead (compare + branch) per probe
	// round, in cycles.
	SpinCost = 8
)

// wordSize is the size of a synchronization variable in bytes.
const wordSize = 8

// SpinLock is a test-test&set mutual-exclusion lock on a shared word.
type SpinLock struct {
	Name string
	addr mem.Addr

	held  bool
	owner int
	q     sim.Queue
}

// NewLock allocates a lock word homed at the given node.
func (c *Ctx) NewLock(name string, home int) *SpinLock {
	arr := c.Space.AllocAt(name, 1, wordSize, home)
	return &SpinLock{Name: name, addr: arr.At(0), owner: -1}
}

// Lock acquires the lock.  Every probe and the winning test&set issue
// real shared-memory references; waiting time beyond those references is
// charged to Sync.
func (l *SpinLock) Lock(p *Proc) {
	p.S.FlushLag() // materialize local time before competing for the lock
	p.spinUntil(l.addr, func() bool { return !l.held }, &l.q)
	// The set half of the test&set: claim the word, then pay the write
	// that makes the claim globally visible.
	l.held = true
	l.owner = p.ID
	p.Write(l.addr)
	p.St.LockOps++
}

// spinUntil probes the word at addr until ready reports true: SpinRounds
// spin rounds, then a park on q until the writer wakes it, and again.
// Before parking it materializes local time and re-checks, so a write
// during the flush is not missed; the parked time is charged to Sync.
// It returns right after the probe that saw ready, so the caller acts on
// what it saw before any other process runs.
func (p *Proc) spinUntil(addr mem.Addr, ready func() bool, q *sim.Queue) {
	spins := 0
	for {
		p.Read(addr)
		if ready() {
			return
		}
		if spins < SpinRounds {
			spins++
			p.spin(SpinCost)
			continue
		}
		p.S.FlushLag()
		if !ready() {
			t0 := p.Now()
			q.Wait(p.S)
			p.St.Add(stats.Sync, p.Now()-t0)
		}
		spins = 0
	}
}

// Unlock releases the lock with an invalidating write of the lock word
// and wakes any parked waiters to re-contend.
func (l *SpinLock) Unlock(p *Proc) {
	p.S.FlushLag()
	if !l.held || l.owner != p.ID {
		panic("app: Unlock of lock not held by " + p.S.Name())
	}
	l.held = false
	l.owner = -1
	p.Write(l.addr)
	l.q.WakeAll()
}

// Flag is a one-word condition variable: consumers wait for a producer's
// write, the paper's EP signalling idiom.
type Flag struct {
	Name string
	addr mem.Addr

	set bool
	q   sim.Queue
}

// NewFlag allocates a flag word homed at the given node.
func (c *Ctx) NewFlag(name string, home int) *Flag {
	arr := c.Space.AllocAt(name, 1, wordSize, home)
	return &Flag{Name: name, addr: arr.At(0)}
}

// Wait spins (then parks) until the flag is set.  The first probe and
// the probe after the setter's invalidation are the network-visible
// references on the cached machines.
func (f *Flag) Wait(p *Proc) {
	p.S.FlushLag() // materialize local time before sampling the flag
	p.spinUntil(f.addr, func() bool { return f.set }, &f.q)
}

// Set raises the flag with an invalidating write and wakes waiters.
func (f *Flag) Set(p *Proc) {
	p.S.FlushLag()
	f.set = true
	p.Write(f.addr)
	f.q.WakeAll()
}

// Barrier is a centralized sense-reversing barrier: a lock-protected
// arrival counter plus a release word all waiters spin on — the standard
// shared-memory barrier of the era, with all of its O(P) traffic.
type Barrier struct {
	Name string
	n    int

	lock      *SpinLock
	countAddr mem.Addr
	flagAddr  mem.Addr

	count int
	sense bool
	q     sim.Queue
}

// NewBarrier allocates a barrier for n participants with its counter and
// release word homed at the given node.
func (c *Ctx) NewBarrier(name string, n, home int) *Barrier {
	arr := c.Space.AllocAt(name, 2, wordSize, home)
	return &Barrier{
		Name:      name,
		n:         n,
		lock:      c.NewLock(name+".lock", home),
		countAddr: arr.At(0),
		flagAddr:  arr.At(1),
	}
}

// Arrive synchronizes the calling processor with the other n-1.
func (b *Barrier) Arrive(p *Proc) {
	p.S.FlushLag() // arrival order is defined by materialized local time
	my := !b.sense

	b.lock.Lock(p)
	p.Read(b.countAddr)
	b.count++
	last := b.count == b.n
	p.Write(b.countAddr)
	b.lock.Unlock(p)

	if last {
		b.count = 0
		b.sense = my
		p.Write(b.flagAddr) // release write invalidates all spinners
		b.q.WakeAll()
		p.St.BarrierOps++
		return
	}
	p.spinUntil(b.flagAddr, func() bool { return b.sense == my }, &b.q)
	p.St.BarrierOps++
}
