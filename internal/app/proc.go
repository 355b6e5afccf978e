// Package app is the framework parallel applications are written
// against: a per-processor Proc API of compute blocks and shared-memory
// references, synchronization objects built from *simulated shared
// memory* (so their traffic is visible to every machine model, exactly
// as the traffic of the original instrumented binaries was visible to
// SPASM), and a runner that executes a Program on a configured machine.
//
// A Program's Body is ordinary Go code: its control flow may depend on
// simulated time (dynamic task queues, lock acquisition order), which is
// what makes the simulation execution-driven rather than trace-driven.
package app

import (
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Proc is one application processor: the handle through which a
// Program's Body interacts with the simulated machine.
type Proc struct {
	// ID is the processor number, 0..P-1.
	ID int
	// S is the underlying simulation process.
	S *sim.Proc
	// M is the machine the program is running on.
	M machine.Machine
	// St accumulates this processor's overheads.
	St *stats.Proc
	// Ctx is the shared program context.
	Ctx *Ctx

	// Phase-profiling state (see Phase).
	phase     string
	phaseT0   sim.Time
	phaseSnap [stats.NumBuckets]sim.Time
}

// Compute models the execution of n instruction cycles that touch no
// shared memory (private data, register work, loop control) — the part
// of the program an execution-driven simulator runs at native speed and
// charges wholesale.
// Deferred local-clock accumulation makes this cheap: no engine event is
// scheduled until the processor next interacts with shared state.
func (p *Proc) Compute(n int64) {
	if n <= 0 {
		return
	}
	d := sim.Cycles(n)
	p.St.Add(stats.Compute, d)
	p.S.Defer(d)
}

// computeTime charges an exact simulated duration of local computation
// (trace replay records inter-reference gaps as durations rather than
// cycle counts).
func computeTime(st *stats.Proc, sp *sim.Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	st.Add(stats.Compute, d)
	sp.Defer(d)
}

// spin burns n cycles charged to synchronization overhead (busy-wait
// loop iterations).
func (p *Proc) spin(n int64) {
	d := sim.Cycles(n)
	p.St.Add(stats.Sync, d)
	p.S.Hold(d)
}

// Read issues a shared-memory read at addr.
func (p *Proc) Read(addr mem.Addr) { p.M.Read(p.S, p.St, p.ID, addr) }

// Write issues a shared-memory write at addr.
func (p *Proc) Write(addr mem.Addr) { p.M.Write(p.S, p.St, p.ID, addr) }

// ReadElem reads element i of arr.
func (p *Proc) ReadElem(arr *mem.Array, i int) { p.Read(arr.At(i)) }

// WriteElem writes element i of arr.
func (p *Proc) WriteElem(arr *mem.Array, i int) { p.Write(arr.At(i)) }

// ReadRange reads elements [lo, hi) of arr in order — the sequential
// scan whose spatial locality caches exploit.
func (p *Proc) ReadRange(arr *mem.Array, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.Read(arr.At(i))
	}
}

// WriteRange writes elements [lo, hi) of arr in order.
func (p *Proc) WriteRange(arr *mem.Array, lo, hi int) {
	for i := lo; i < hi; i++ {
		p.Write(arr.At(i))
	}
}

// Now returns the current simulated time.
func (p *Proc) Now() sim.Time { return p.S.Now() }
