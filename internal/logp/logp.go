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
// Machines take L from machine.Config, whose default is the same product
// (a machine test holds them equal); only the benchmark's LogP layer,
// which builds a bare network, reads it.
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
	// topology g was derived from.  A port holds the g in force when it
	// booked: a later change of g does not stretch a booked gap.
	Crosses func(src, dst int) bool

	// ports books each node's port: a send books port src, a receive port
	// dst + recvBase.  recvBase is 0 in Combined mode, where a node has
	// one port and every event gaps against its last of either class,
	// and P in PerClass mode, where receives have ports of their own.
	p        int
	recvBase int
	ports    network.Calendar

	// Messages and Bytes count every message carried and its size;
	// Crossing counts those that crossed the bisection (adaptive mode
	// only).
	Messages uint64
	Bytes    uint64
	Crossing uint64

	// Observer, when non-nil, is shown every message the abstract
	// network carries, with no links.
	Observer network.Observer
}

// New returns a LogP network over p nodes with the given parameters.
func New(p int, l, g sim.Time, mode PortMode) *Net {
	if p < 1 {
		panic("logp: p < 1")
	}
	if l < 0 || g < 0 {
		panic("logp: negative L or g")
	}
	n := &Net{L: l, G: g, p: p}
	if mode == PerClass {
		n.recvBase = p
	}
	n.ports = network.NewCalendar(p + n.recvBase)
	return n
}

// Release drops the net's port calendar so a discarded net does not pin
// it.  The traffic counters stay readable, but any further Message
// panics: the ports are gone.
func (n *Net) Release() {
	n.ports = network.Calendar{}
}

// P returns the number of nodes.
func (n *Net) P() int { return n.p }

// Reset returns the net to its post-New state in place: every node's
// ports again admit their first event at time zero, traffic counters are
// zeroed, and the Observer is dropped.  L, G, the port mode (recvBase)
// and the Crosses predicate are configuration — derived from the machine
// and topology the pooled context is keyed by — and are left alone.
func (n *Net) Reset() {
	n.ports.Reset()
	n.Messages = 0
	n.Bytes = 0
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
// The message is booked with no size.
func (n *Net) Message(now sim.Time, src, dst int) Xmit {
	x := n.Xfer(now, src, dst, 0)
	return Xmit{SendAt: x.Start, Arrive: x.Start + n.L, Deliver: x.End, Latency: n.L, Wait: x.Wait}
}

// Deliver is Xfer for a caller that needs only when the message is
// delivered and how long the gap held it up.
func (n *Net) Deliver(now sim.Time, src, dst, bytes int) (deliver, wait sim.Time) {
	x := n.Xfer(now, src, dst, bytes)
	return x.End, x.Wait
}

// Xfer carries one message of the given size from src to dst, departing
// no earlier than now: it gates it through both endpoints' ports, counts
// it and shows it to the Observer — all there is to the model.  The
// schedule starts when the source's port admits the send; the size is
// counted but does not affect timing.
func (n *Net) Xfer(now sim.Time, src, dst, bytes int) network.Xmit {
	if src == dst {
		panic(fmt.Sprintf("logp: message to self at node %d", src))
	}
	g, rp := n.effectiveG(), dst+n.recvBase
	sendAt := max(now, n.ports.Free(src))
	n.ports.Hold(src, sendAt+g)
	deliver := max(sendAt+n.L, n.ports.Free(rp))
	n.ports.Hold(rp, deliver+g)
	n.Messages++
	n.Bytes += uint64(bytes)
	if n.Crosses != nil && n.Crosses(src, dst) {
		n.Crossing++
	}
	x := network.Xmit{Start: sendAt, End: deliver, Latency: n.L, Wait: deliver - now - n.L}
	if n.Observer != nil {
		n.Observer(now, x, src, dst, bytes, nil)
	}
	return x
}
