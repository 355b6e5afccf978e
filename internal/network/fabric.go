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

	// res books the fabric's resources in the flow tier's order: links
	// [0, NumLinks), then P injection ports from inj, then P ejection
	// ports from ej.
	res     Calendar
	inj, ej int

	// slow holds the per-link slowdown factor for degraded links (fault
	// injection: a link that transmits N times slower than nominal).
	// It stays nil until the first Degrade call, keeping the factor scan
	// off the Reserve hot path for undamaged fabrics; once allocated it
	// is indexed by link id, so the scan is an array walk with no map
	// lookups.  Entries are 0 for healthy links, >= 1 for degraded ones.
	slow []int32

	// Observer, when non-nil, is shown every message the fabric carries,
	// with the links of its route.
	Observer Observer

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
	links, p := t.NumLinks(), t.P()
	return &Fabric{
		topo:     t,
		ByteTime: sim.SerialByte,
		res:      NewCalendar(links + 2*p),
		inj:      links,
		ej:       links + p,
	}
}

// Topology returns the underlying topology.
func (f *Fabric) Topology() Topology { return f.topo }

// Reset returns the fabric to its post-NewFabric state in place: all
// link, injection, and ejection ports free at time zero, traffic counters
// zeroed, no Observer, and every link restored to nominal speed.  The
// calendar clears the resources the last run held, the Degrade factor
// array (if one was ever allocated) is cleared rather than reallocated,
// and the topology (with its precomputed route tables) is reused as-is,
// since it is immutable.  ByteTime is configuration of the pooled context
// and is left alone.
func (f *Fabric) Reset() {
	f.res.Reset()
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
	if link < 0 || link >= f.inj {
		panic(fmt.Sprintf("network: Degrade of link %d out of range", link))
	}
	if factor < 1 {
		panic(fmt.Sprintf("network: Degrade factor %d < 1", factor))
	}
	if f.slow == nil {
		f.slow = make([]int32, f.inj)
	}
	f.slow[link] = int32(factor)
}

// Xmit is one message's schedule on a network: the fabric's, and the
// one every tier reports through its Observer.
type Xmit struct {
	// Start is when the network took the message: the circuit's
	// establishment on the fabric, the send port's admission on LogP,
	// the requested departure on the flow tier.
	Start sim.Time
	End   sim.Time // when the last byte arrived
	// Latency is the contention-free component (on the fabric, End -
	// Start).
	Latency sim.Time
	// Wait is the contention-induced component (resource waiting,
	// port-gap stalls, or bandwidth-sharing stretch); it is charged to
	// contention.
	Wait sim.Time
}

// Observer is shown every message a network carries: the requested
// departure time, the resulting schedule, the endpoints and size, and
// the resources it is charged to — the route's links on the fabric,
// the bottleneck on the flow tier, none on LogP.  links is only valid
// for the duration of the call.
type Observer func(now sim.Time, x Xmit, src, dst, bytes int, links []int)

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

	start := max(now, f.res.Free(f.inj+src), f.res.Free(f.ej+dst))
	for _, l := range route {
		start = max(start, f.res.Free(l))
	}
	end := start + dur
	f.res.Hold(f.inj+src, end)
	f.res.Hold(f.ej+dst, end)
	for _, l := range route {
		f.res.Hold(l, end)
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
