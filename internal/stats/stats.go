// Package stats implements SPASM's separation of parallel-system
// overheads: for each simulated processor it accumulates where simulated
// time went (compute, memory, network latency, network contention,
// synchronization) and counts the events (references, misses, messages)
// that the paper's analysis relies on.
//
// The separation rule follows the paper exactly: the time a message would
// take on a contention-free network is charged to the *latency* bucket;
// any additional time the message spends waiting (for links on the target
// machine, for the g-gap on the LogP machines) is charged to the
// *contention* bucket.
package stats

import (
	"fmt"
	"time"

	"spasm/internal/sim"
)

// Bucket labels one of the time categories SPASM separates.
type Bucket int

const (
	// Compute is time spent executing instructions that do not touch
	// shared memory (the "executed at native speed" portion of an
	// execution-driven simulation).
	Compute Bucket = iota
	// Memory is time spent in the local memory hierarchy: cache hits,
	// cache fills, and local (home-node) memory accesses.
	Memory
	// Latency is contention-free message transmission time — the
	// network overhead the LogP L parameter abstracts.
	Latency
	// Contention is time messages spend waiting: for links on the
	// target machine, or induced by the g-gap on LogP machines.
	Contention
	// Sync is time spent blocked in synchronization (spinning or
	// parked at locks, flags, and barriers), excluding the memory and
	// network time of the synchronization references themselves.
	Sync
	// NumBuckets is the number of time buckets.
	NumBuckets
)

var bucketNames = [NumBuckets]string{"compute", "memory", "latency", "contention", "sync"}

func (b Bucket) String() string {
	if b < 0 || b >= NumBuckets {
		return fmt.Sprintf("Bucket(%d)", int(b))
	}
	return bucketNames[b]
}

// Proc accumulates the overheads and event counts of one simulated
// processor.
type Proc struct {
	ID     int
	Time   [NumBuckets]sim.Time
	Finish sim.Time // simulated time at which the processor completed

	Reads       uint64 // shared-memory read references
	Writes      uint64 // shared-memory write references
	Hits        uint64 // cache hits (machines with caches)
	Misses      uint64 // cache misses (machines with caches)
	Messages    uint64 // network messages sent on this processor's behalf
	NetBytes    uint64 // total bytes in those messages
	NetAccesses uint64 // references that crossed the network
	Invals      uint64 // invalidation messages caused (target machine)
	Writebacks  uint64 // writeback messages caused (target machine)
	LockOps     uint64 // lock acquisitions completed
	BarrierOps  uint64 // barrier episodes completed
}

// Add charges d units of simulated time to bucket b.
func (p *Proc) Add(b Bucket, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("stats: negative charge %v to %v", d, b))
	}
	p.Time[b] += d
}

// Busy returns the total time accounted across all buckets.
func (p *Proc) Busy() sim.Time {
	var t sim.Time
	for _, v := range p.Time {
		t += v
	}
	return t
}

// Run aggregates one simulation run.
type Run struct {
	Procs []Proc

	// Total is the simulated execution time: the maximum of the
	// individual processors' finish times, exactly as SPASM reports it.
	Total sim.Time
	// SimEvents is the number of discrete events the engine
	// dispatched; it is the machine-independent measure of how
	// expensive the simulation itself was.
	SimEvents uint64
	// NetEvents is the network model's own unit of work, as reported by
	// the machine's network backend: per-hop resource reservations on
	// the detailed fabric, per-message port gatings on the LogP tiers,
	// bandwidth-allocation recomputations on the flow tier.  Zero on
	// machines without a network backend.
	NetEvents uint64
	// Wall is the host wall-clock duration of the simulation, the
	// paper's "speed of simulation" metric.
	Wall time.Duration
	// Work counts what the simulator did beyond the events above.
	Work Work
}

// Work is the simulator's own work behind a run, in units no host
// changes: the same spec, driven and observed the same way, always counts
// the same.  Unlike the statistics it depends on how the run was driven
// (a stackless run makes no coroutine switches) and observed (only a
// profiled run charges link samples), so no result document carries it.
type Work struct {
	// Switches counts the coroutine switches of sequential dispatch, two
	// per resume.
	Switches uint64
	// QueueMoves counts the event copies the ladder queue made after a
	// push landed; QueueSorted the events that went through a bucket
	// sort.  Both are zero on a run that stayed on the binary heap.
	QueueMoves, QueueSorted uint64
	// LinkSamples counts the per-link samples the profiler charged: one
	// for each link of a message's route in each epoch its occupancy
	// reaches, and one more where its departure epoch is not among them.
	LinkSamples uint64
	// Epochs counts the epochs the profiler closed, each at the
	// resolution current when it closed.
	Epochs uint64
	// Rescales counts the times the profiler halved its resolution.
	Rescales uint64
}

// NewRun returns a Run with p processor slots.
func NewRun(p int) *Run {
	r := &Run{Procs: make([]Proc, p)}
	for i := range r.Procs {
		r.Procs[i].ID = i
	}
	return r
}

// P returns the number of processors in the run.
func (r *Run) P() int { return len(r.Procs) }

// Complete sets Total to the latest of the processors' finish times; call
// it once every processor has finished.
func (r *Run) Complete() {
	for i := range r.Procs {
		r.Total = max(r.Total, r.Procs[i].Finish)
	}
}

// Sum returns the sum over processors of bucket b.
func (r *Run) Sum(b Bucket) sim.Time {
	var t sim.Time
	for i := range r.Procs {
		t += r.Procs[i].Time[b]
	}
	return t
}

// Mean returns the per-processor mean of bucket b.
func (r *Run) Mean(b Bucket) sim.Time {
	if len(r.Procs) == 0 {
		return 0
	}
	return r.Sum(b) / sim.Time(len(r.Procs))
}

// Count sums a per-processor counter selected by f.
func (r *Run) Count(f func(*Proc) uint64) uint64 {
	var n uint64
	for i := range r.Procs {
		n += f(&r.Procs[i])
	}
	return n
}

// Messages returns the total network messages in the run.
func (r *Run) Messages() uint64 { return r.Count(func(p *Proc) uint64 { return p.Messages }) }

// NetAccesses returns the total network-crossing references in the run.
func (r *Run) NetAccesses() uint64 { return r.Count(func(p *Proc) uint64 { return p.NetAccesses }) }

// String summarizes the run in one line.
func (r *Run) String() string {
	return fmt.Sprintf("p=%d total=%v latency=%v contention=%v sync=%v msgs=%d",
		len(r.Procs), r.Total, r.Sum(Latency), r.Sum(Contention), r.Sum(Sync), r.Messages())
}
