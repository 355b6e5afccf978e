package probe

import (
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// EpochEvent is one incremental epoch emission: a per-epoch aggregate
// published while the run is still executing, the payload behind
// spasmd's live result streaming.
//
// Events are provisional in a way the finished Profile is not.  Two
// effects can revise an epoch after it was emitted: local-clock
// spreading may charge late-observed activity back into it, and an
// epoch-budget rescale merges adjacent epochs pairwise (after a rescale
// the already-covered timeline is re-emitted at the doubled epoch
// length, which is why every event carries its own EpochLen and Start).
// Live consumers should treat the stream as telemetry; the canonical
// record is the deterministic encoded Profile at run completion.
type EpochEvent struct {
	// Index is the epoch's index at the resolution current when the
	// event fired; Start = Index * EpochLen.
	Index    int
	EpochLen sim.Time
	Start    sim.Time

	// Buckets holds the epoch's overhead-bucket deltas summed over all
	// processors.
	Buckets [stats.NumBuckets]sim.Time

	// Event-counter deltas summed over all processors.
	Misses     uint64
	Invals     uint64
	Writebacks uint64
	Messages   uint64

	// LinkBusy and LinkPeak are the summed and single-busiest link
	// occupancy within the epoch (0 on machines without per-link
	// telemetry); NumLinks is the link id space for normalizing them.
	LinkBusy sim.Time
	LinkPeak sim.Time
	NumLinks int

	// Final marks events emitted while closing the run's tail (from
	// Finish rather than from a live boundary crossing).
	Final bool
}

// Utilization returns the epoch's mean and single-busiest-link
// utilization, both 0 without per-link telemetry.
func (e *EpochEvent) Utilization() (mean, max float64) {
	return utilization(e.LinkBusy, e.LinkPeak, e.EpochLen, e.NumLinks)
}

// linkBusy adds one link's occupancy to the event's sum and peak.
func (e *EpochEvent) linkBusy(b sim.Time) {
	e.LinkBusy += b
	e.LinkPeak = max(e.LinkPeak, b)
}

// event renders epoch idx's accumulator as an EpochEvent.
func (pr *Profiler) event(idx int, final bool) EpochEvent {
	ev := EpochEvent{
		Index:    idx,
		EpochLen: pr.epochLen,
		Start:    sim.Time(idx) * pr.epochLen,
		NumLinks: pr.numLinks,
		Final:    final,
	}
	for _, ps := range pr.procsOf(idx) {
		for b := range ps.Buckets {
			ev.Buckets[b] += ps.Buckets[b]
		}
		ev.Misses += ps.Misses
		ev.Invals += ps.Invals
		ev.Writebacks += ps.Writebacks
		ev.Messages += ps.Messages
	}
	e := &pr.epochs[idx]
	for _, l := range e.links {
		ev.linkBusy(l.Busy)
	}
	if e.ovfHeld {
		ev.linkBusy(e.ovf.Busy)
	}
	return ev
}

// emitClosed fires the OnEpoch hook for every epoch below limit not yet
// emitted.  It runs synchronously on the simulation goroutine, so the
// hook must be cheap and must not re-enter the profiler.
func (pr *Profiler) emitClosed(limit int, final bool) {
	if pr.cfg.OnEpoch == nil {
		return
	}
	if limit > len(pr.epochs) {
		limit = len(pr.epochs)
	}
	for ; pr.emitted < limit; pr.emitted++ {
		pr.cfg.OnEpoch(pr.event(pr.emitted, final))
	}
}
