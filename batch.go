package spasm

import (
	"spasm/internal/app"
	"spasm/internal/exp"
)

// Batched sweeps and pooled run contexts.
type (
	// BatchPoint is one sweep point for Session.RunBatch: an
	// (application, topology, machine, P) combination at the batch's
	// scale and seed.
	BatchPoint = exp.BatchPoint
	// RunPool is a bounded freelist of reusable run contexts keyed by
	// machine configuration; runs on a pool skip machine construction
	// after the first run of each configuration while producing
	// bit-identical results.  Safe for concurrent use.
	RunPool = app.Pool
	// PoolStats is a snapshot of a pool's hit/miss/live counters.
	PoolStats = app.PoolStats
)

// NewRunPool returns a run-context pool retaining at most maxIdle idle
// contexts (a sensible default when maxIdle <= 0).
func NewRunPool(maxIdle int) *RunPool { return app.NewPool(maxIdle) }

// RunSpecOn is Execute on a pooled context (RunOptions.Pool); a nil
// pool runs on a fresh one.
func RunSpecOn(spec Spec, pool *RunPool) (*Result, error) {
	return resultOf(Execute(spec, RunOptions{Pool: pool}))
}

// RunControl carries the failure-containment knob of one run: a
// wall-clock Timeout that aborts the run cooperatively (every
// simulated-process goroutine unwinds; no leaks).  The zero value means
// "run to completion" and costs nothing.
type RunControl = app.RunControl

// ErrRunTimeout marks a run aborted by RunControl.Timeout: match it with
// errors.Is to tell a bounded run's abort apart from a genuine
// simulation failure.
var ErrRunTimeout = app.ErrRunTimeout
