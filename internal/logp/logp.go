// Package logp implements the network abstraction of Culler et al.'s
// LogP model as the paper uses it: every message incurs a fixed latency
// L, and each processor may perform at most one network event (send or
// receive) every g time units, where g is derived from the per-processor
// bisection bandwidth of the network being abstracted.
//
// The o (overhead) parameter is insignificant on a shared-memory platform
// where messaging happens in hardware, and is omitted, following the
// paper.  The P parameter is carried by the machine configuration.
//
// Two gap-accounting disciplines are provided:
//
//   - Combined (the LogP definition): sends and receives at a node share
//     one port, so even a send immediately following a receive must wait
//     g.  The paper identifies this as a source of pessimism.
//   - PerClass (the paper's §7 ablation): the g gap is enforced only
//     between *identical* communication events — sends gap against
//     sends, receives against receives — which the authors found brings
//     the contention estimate much closer to the real network.
package logp

import (
	"fmt"

	"spasm/internal/network"
	"spasm/internal/sim"
)

// DefaultL is the paper's L parameter: the transmission time of a
// maximum-size 32-byte message on a 20 MB/s link, 1.6 microseconds.
const DefaultL = sim.Time(32) * sim.SerialByte

// PortMode selects the gap-accounting discipline.
type PortMode int

const (
	// Combined enforces g between any two network events at a node
	// (the strict LogP definition).
	Combined PortMode = iota
	// PerClass enforces g separately between sends and between
	// receives (the §7 ablation).
	PerClass
)

func (m PortMode) String() string {
	switch m {
	case Combined:
		return "combined"
	case PerClass:
		return "per-class"
	}
	return fmt.Sprintf("PortMode(%d)", int(m))
}

// GapFor computes the paper's g parameter for a topology: the time per
// maximum-size message divided by the per-processor share of the
// bisection bandwidth.  With the paper's constants this yields
// 3.2/p us (full), 1.6 us (cube) and 0.8*cols us (mesh).
func GapFor(t network.Topology, msgBytes int, byteTime sim.Time) sim.Time {
	msg := sim.Time(msgBytes) * byteTime
	return msg * sim.Time(t.P()) / sim.Time(t.BisectionLinks())
}

// Net is a LogP-abstracted network over P nodes.
type Net struct {
	L sim.Time
	G sim.Time

	// Crosses, when non-nil, enables the history-based adaptive g the
	// paper proposes in section 7: g is derived from bisection
	// bandwidth under the assumption that *every* message crosses the
	// bisection, so the effective gap is scaled by the observed
	// fraction of traffic that actually does.  The predicate reports
	// whether a src->dst message crosses the bisection of the
	// topology g was derived from.
	Crosses func(src, dst int) bool

	// Port state: when each node last sent and last received.  Combined
	// mode has one port a node, so there recv is the same array as send
	// and every event gaps against the node's last of either class;
	// allocating only what the mode gates keeps the per-node footprint flat
	// at large P (one port array at 1024 nodes instead of three).
	//
	// Slots are initialized lazily: a node's ports are valid only while
	// stamp[node] == gen.  gate re-stamps a node to -g on first touch
	// after a Reset, which makes Reset O(1) instead of O(p) — at large P
	// a pooled net is reset far more often than most nodes communicate.
	p     int
	send  []sim.Time
	recv  []sim.Time
	stamp []uint32 // port-validity generation per node
	gen   uint32   // current generation (never 0 while live)

	// Messages counts every message carried; Crossing counts those
	// that crossed the bisection (adaptive mode only).
	Messages uint64
	Crossing uint64

	// Observer, when non-nil, is invoked for every message the abstract
	// network carries (Message or Deliver), with the requested departure
	// time and the resulting schedule.
	Observer func(now sim.Time, x Xmit, src, dst int)
}

// New returns a LogP network over p nodes with the given parameters.
func New(p int, l, g sim.Time, mode PortMode) *Net {
	if p < 1 {
		panic("logp: p < 1")
	}
	if l < 0 || g < 0 {
		panic("logp: negative L or g")
	}
	n := &Net{L: l, G: g, p: p, gen: 1}
	n.send = make([]sim.Time, p)
	n.recv = n.send
	if mode == PerClass {
		n.recv = make([]sim.Time, p)
	}
	// Zero never equals a live generation (gen starts at 1 and skips 0
	// on wrap), so the zeroed stamps mark every node's ports
	// uninitialized.
	n.stamp = make([]uint32, p)
	return n
}

// Release drops the net's per-node arrays so a discarded net does not
// pin them.  The traffic counters stay readable, but any further Message
// or Reset panics.
func (n *Net) Release() {
	n.send, n.recv, n.stamp = nil, nil, nil
}

// P returns the number of nodes.
func (n *Net) P() int { return n.p }

// Reset returns the net to its post-New state in place: every node's
// ports again admit their first event at time zero, traffic counters are
// zeroed, and the Observer is dropped.  L, G, the port mode (whether recv
// is send's array) and the Crosses predicate are configuration — derived
// from the machine and topology the pooled context is keyed by — and are
// left alone.
//
// Reset is O(1): it bumps the port-validity generation, invalidating
// every stamp at once; gate lazily re-initializes a node's slots on its
// first event of the new run.  Only on uint32 wraparound (once per 2^32
// resets) does it pay an O(p) stamp clear, to keep a stamp left over
// from four billion runs ago from reading as current.
func (n *Net) Reset() {
	n.gen++
	if n.gen == 0 {
		for i := range n.stamp {
			n.stamp[i] = 0
		}
		n.gen = 1
	}
	n.Messages = 0
	n.Crossing = 0
	n.Observer = nil
}

// adaptiveWarmup is how many messages the adaptive estimator observes
// before trusting its locality history.
const adaptiveWarmup = 32

// effectiveG returns the gap currently in force: the static g, or — in
// adaptive mode, once warmed up — g scaled by the observed fraction of
// bisection-crossing traffic.
func (n *Net) effectiveG() sim.Time {
	if n.Crosses == nil || n.Messages < adaptiveWarmup {
		return n.G
	}
	return sim.Time(uint64(n.G) * n.Crossing / n.Messages)
}

// gate returns the earliest time >= at that node may perform an event on
// the port whose calendar is ports (n.send or n.recv), and records the
// event.  Small enough to inline: a message is one call, book.
func (n *Net) gate(ports []sim.Time, node int, at, g sim.Time) sim.Time {
	if n.stamp[node] != n.gen {
		n.open(node)
	}
	ready := max(ports[node]+g, at)
	ports[node] = ready
	return ready
}

// open initializes the ports of a node whose stamp predates the current
// generation to -g (the static G, as New stamped them), so its first event
// may happen at time zero.
func (n *Net) open(node int) {
	n.stamp[node] = n.gen
	n.send[node] = -n.G
	n.recv[node] = -n.G
}

// Xmit describes one message on the abstract network.
type Xmit struct {
	SendAt  sim.Time // when the source's port admitted the send
	Arrive  sim.Time // SendAt + L
	Deliver sim.Time // when the destination's port admitted the receive
	// Latency is the contention-free component, always L.
	Latency sim.Time
	// Wait is the gap-induced stall at both endpoints; it is charged
	// to the contention overhead.
	Wait sim.Time
}

// Message transfers one message from src to dst, departing no earlier
// than now, and returns its schedule.  It does not block any process;
// callers advance their process to Deliver (or compose further legs).
func (n *Net) Message(now sim.Time, src, dst int) Xmit {
	sendAt, deliver := n.book(now, src, dst)
	return n.xmit(now, sendAt, deliver)
}

// Deliver is Message for a caller that needs only when the message is
// delivered and how long the gap held it up (Xmit.Deliver, Xmit.Wait): the
// same booking, and no 40-byte schedule written out to be read back for
// two words of it.
func (n *Net) Deliver(now sim.Time, src, dst int) (deliver, wait sim.Time) {
	_, deliver = n.book(now, src, dst)
	return deliver, deliver - now - n.L
}

// book carries one message: it gates it through both endpoints' ports,
// counts it and shows it to the Observer — all there is to the model.
func (n *Net) book(now sim.Time, src, dst int) (sendAt, deliver sim.Time) {
	if src == dst {
		panic(fmt.Sprintf("logp: message to self at node %d", src))
	}
	g := n.effectiveG()
	sendAt = n.gate(n.send, src, now, g)
	deliver = n.gate(n.recv, dst, sendAt+n.L, g)
	n.Messages++
	if n.Crosses != nil && n.Crosses(src, dst) {
		n.Crossing++
	}
	if n.Observer != nil {
		n.Observer(now, n.xmit(now, sendAt, deliver), src, dst)
	}
	return sendAt, deliver
}

// xmit writes out the schedule of a message booked at now.
func (n *Net) xmit(now, sendAt, deliver sim.Time) Xmit {
	arrive := sendAt + n.L
	return Xmit{
		SendAt:  sendAt,
		Arrive:  arrive,
		Deliver: deliver,
		Latency: n.L,
		Wait:    (sendAt - now) + (deliver - arrive),
	}
}
