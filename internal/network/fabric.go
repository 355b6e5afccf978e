package network

import (
	"fmt"

	"spasm/internal/sim"
)

// Fabric adds timing and contention to a Topology.  Messages are
// circuit-switched: a message occupies its source's injection port, every
// link on its route, and its destination's ejection port from the moment
// the circuit is established until the last byte has been transmitted.
// With wormhole routing on serial links and negligible switching delay,
// the transmission occupies the circuit for bytes * ByteTime, as in the
// paper.
type Fabric struct {
	topo Topology

	// ByteTime is the per-byte transmission time of a serial link
	// (defaults to sim.SerialByte, i.e. 20 MB/s).
	ByteTime sim.Time

	linkFree []sim.Time
	injFree  []sim.Time
	ejFree   []sim.Time

	// touched records the links whose linkFree entry has been written
	// since the last Reset, so Reset clears O(messages' footprint)
	// instead of sweeping all NumLinks entries — on the fully connected
	// topology that sweep is O(p²), which dominates pooled small runs at
	// large p.  A link is recorded the first time it leaves the zero
	// state; duplicates (possible only when a transmission ends at time
	// zero) merely clear twice.
	touched []int32

	// slow holds the per-link slowdown factor for degraded links (fault
	// injection: a link that transmits N times slower than nominal).
	// It stays nil until the first Degrade call, keeping the factor scan
	// off the Reserve hot path for undamaged fabrics; once allocated it
	// is indexed by link id, so the scan is an array walk with no map
	// lookups.  Entries are 0 for healthy links, >= 1 for degraded ones.
	slow []int32

	// Observer, when non-nil, is invoked from Reserve for every message
	// the fabric carries: the requested departure time, the resulting
	// schedule, the endpoints and size, and the links of the route.
	// The route slice is only valid for the duration of the call.
	Observer func(now sim.Time, x Xmit, src, dst, bytes int, route []int)

	// Messages and Bytes count all traffic carried by the fabric.
	Messages uint64
	Bytes    uint64
	// HopEvents counts per-hop resource reservations: every message
	// books its route's links plus the two endpoint ports, so each
	// Reserve adds len(route)+2.  It is the detailed model's unit of
	// simulation work — the event count a per-hop network simulator
	// would dispatch — and the baseline the flow tier's event-reduction
	// claim is measured against.
	HopEvents uint64
}

// NewFabric returns a fabric over the given topology with the paper's
// link parameters (20 MB/s serial links, zero switching delay).
func NewFabric(t Topology) *Fabric {
	return &Fabric{
		topo:     t,
		ByteTime: sim.SerialByte,
		linkFree: make([]sim.Time, t.NumLinks()),
		injFree:  make([]sim.Time, t.P()),
		ejFree:   make([]sim.Time, t.P()),
	}
}

// Topology returns the underlying topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Reset returns the fabric to its post-NewFabric state in place: all
// link, injection, and ejection ports free at time zero, traffic counters
// zeroed, no Observer, and every link restored to nominal speed.  The
// per-resource availability arrays — and the Degrade factor array, if one
// was ever allocated — are cleared rather than reallocated, and the
// topology (with its precomputed route tables) is reused as-is, since it
// is immutable.  ByteTime is configuration of the pooled context and is
// left alone.
func (f *Fabric) Reset() {
	for _, l := range f.touched {
		f.linkFree[l] = 0
	}
	f.touched = f.touched[:0]
	for i := range f.injFree {
		f.injFree[i] = 0
	}
	for i := range f.ejFree {
		f.ejFree[i] = 0
	}
	for i := range f.slow {
		f.slow[i] = 0
	}
	f.Observer = nil
	f.Messages = 0
	f.Bytes = 0
	f.HopEvents = 0
}

// Degrade marks a directed link as transmitting factor times slower than
// nominal (factor >= 1): fault injection for studying what per-link
// detail the abstract network models cannot see.
func (f *Fabric) Degrade(link, factor int) {
	if link < 0 || link >= len(f.linkFree) {
		panic(fmt.Sprintf("network: Degrade of link %d out of range", link))
	}
	if factor < 1 {
		panic(fmt.Sprintf("network: Degrade factor %d < 1", factor))
	}
	if f.slow == nil {
		f.slow = make([]int32, len(f.linkFree))
	}
	f.slow[link] = int32(factor)
}

// Xmit is the result of reserving the fabric for one message.
type Xmit struct {
	Start sim.Time // when the circuit was established
	End   sim.Time // when the last byte arrived
	// Latency is the contention-free transmission time (End - Start).
	Latency sim.Time
	// Wait is the time the message waited for resources (Start - the
	// requested departure time); it is charged to contention.
	Wait sim.Time
}

// Reserve books the circuit for a message of the given size from src to
// dst, departing no earlier than now.  It updates resource availability
// and returns the transmission schedule; the caller is responsible for
// advancing its process to Xmit.End and for accounting.
func (f *Fabric) Reserve(now sim.Time, src, dst, bytes int) Xmit {
	if bytes <= 0 {
		panic(fmt.Sprintf("network: message of %d bytes", bytes))
	}
	route := f.topo.Route(src, dst)
	dur := sim.Time(bytes) * f.ByteTime
	if f.slow != nil {
		// A circuit is only as fast as its slowest link.
		worst := int32(1)
		for _, l := range route {
			if s := f.slow[l]; s > worst {
				worst = s
			}
		}
		dur *= sim.Time(worst)
	}

	start := now
	if t := f.injFree[src]; t > start {
		start = t
	}
	if t := f.ejFree[dst]; t > start {
		start = t
	}
	for _, l := range route {
		if t := f.linkFree[l]; t > start {
			start = t
		}
	}
	end := start + dur
	f.injFree[src] = end
	f.ejFree[dst] = end
	for _, l := range route {
		if f.linkFree[l] == 0 {
			f.touched = append(f.touched, int32(l))
		}
		f.linkFree[l] = end
	}
	f.Messages++
	f.Bytes += uint64(bytes)
	f.HopEvents += uint64(len(route)) + 2
	x := Xmit{Start: start, End: end, Latency: dur, Wait: start - now}
	if f.Observer != nil {
		f.Observer(now, x, src, dst, bytes, route)
	}
	return x
}
