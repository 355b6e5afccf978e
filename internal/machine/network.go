package machine

import (
	"spasm/internal/flow"
	"spasm/internal/logp"
	"spasm/internal/network"
	"spasm/internal/sim"
)

// Network is the uniform interface over the simulator's network
// backends — the detailed circuit-switched fabric, the LogP L/g
// abstraction, and the flow-based bandwidth-sharing tier.  The machine
// characterizations drive their backends through concrete types on the
// hot paths (the devirtualized calls the event-kernel benchmarks pin),
// but every backend is reached for anything else through this one seam:
// the conformance suite exercises each machine's backend through it, the
// probe observes it, and run results read model-cost counters from it.
type Network interface {
	// P reports the number of nodes.
	P() int
	// Links reports the size of the id space an Observer's links are
	// drawn from: the fabric's directed links, the flow tier's resources
	// (links, then injection and ejection ports), none on LogP.
	Links() int
	// Reset returns the backend to its post-construction state in place
	// (the run pool's rebind contract, docs/INTERNALS.md §9), dropping every
	// observer.
	Reset()
	// Settle tells the backend no future Xfer departs earlier than upTo
	// (a lower bound from the engine's global clock).  Backends that
	// keep no time-windowed state treat it as a no-op.
	Settle(upTo sim.Time)
	// Xfer carries one message of the given size from src to dst,
	// departing no earlier than now, and returns its schedule.
	Xfer(now sim.Time, src, dst, bytes int) network.Xmit
	// Observe shows fn every message the backend carries from now on,
	// after the observers attached before it, as Engine.Tick hooks chain.
	Observe(fn network.Observer)
	// Stats reports the backend's cumulative traffic and model cost.
	Stats() NetStats
}

// NetStats summarizes a backend's cumulative traffic and model cost.
type NetStats struct {
	// Messages and Bytes count the traffic carried.
	Messages uint64
	Bytes    uint64
	// ModelEvents is the backend's own unit of simulation work: per-hop
	// resource reservations on the detailed fabric (len(route)+2 per
	// message), endpoint port gatings on the LogP net (2 per message),
	// and allocation recomputations on the flow tier (none for
	// uncontended flows).
	ModelEvents uint64
}

// chain returns an observer that calls prev, when there is one, then fn.
func chain(prev, fn network.Observer) network.Observer {
	if prev == nil {
		return fn
	}
	return func(now sim.Time, x network.Xmit, src, dst, bytes int, links []int) {
		prev(now, x, src, dst, bytes, links)
		fn(now, x, src, dst, bytes, links)
	}
}

// fabricNet adapts the detailed fabric to the Network interface.
type fabricNet struct{ fab *network.Fabric }

func (a fabricNet) P() int                      { return a.fab.Topology().P() }
func (a fabricNet) Links() int                  { return a.fab.Topology().NumLinks() }
func (a fabricNet) Reset()                      { a.fab.Reset() }
func (a fabricNet) Settle(upTo sim.Time)        {}
func (a fabricNet) Observe(fn network.Observer) { a.fab.Observer = chain(a.fab.Observer, fn) }

func (a fabricNet) Xfer(now sim.Time, src, dst, bytes int) network.Xmit {
	return a.fab.Reserve(now, src, dst, bytes)
}

func (a fabricNet) Stats() NetStats {
	return NetStats{Messages: a.fab.Messages, Bytes: a.fab.Bytes, ModelEvents: a.fab.HopEvents}
}

// logpNet adapts the LogP abstraction to the Network interface.
type logpNet struct{ net *logp.Net }

func (a logpNet) P() int                      { return a.net.P() }
func (a logpNet) Links() int                  { return 0 }
func (a logpNet) Reset()                      { a.net.Reset() }
func (a logpNet) Settle(upTo sim.Time)        {}
func (a logpNet) Observe(fn network.Observer) { a.net.Observer = chain(a.net.Observer, fn) }

func (a logpNet) Xfer(now sim.Time, src, dst, bytes int) network.Xmit {
	return a.net.Xfer(now, src, dst, bytes)
}

func (a logpNet) Stats() NetStats {
	// Two port gatings (send and receive) per message.
	return NetStats{Messages: a.net.Messages, Bytes: a.net.Bytes, ModelEvents: 2 * a.net.Messages}
}

// flowNet adapts the flow tier to the Network interface.
type flowNet struct{ net *flow.Net }

func (a flowNet) P() int                      { return a.net.P() }
func (a flowNet) Links() int                  { return a.net.LinkSpace() }
func (a flowNet) Reset()                      { a.net.Reset() }
func (a flowNet) Settle(upTo sim.Time)        { a.net.Settle(upTo) }
func (a flowNet) Observe(fn network.Observer) { a.net.Observer = chain(a.net.Observer, fn) }

func (a flowNet) Xfer(now sim.Time, src, dst, bytes int) network.Xmit {
	x := a.net.Transfer(now, src, dst, bytes)
	return network.Xmit{Start: x.Start, End: x.End, Latency: x.Latency, Wait: x.Wait}
}

func (a flowNet) Stats() NetStats {
	return NetStats{Messages: a.net.Messages, Bytes: a.net.Bytes, ModelEvents: a.net.Recomputes}
}

// Backend is implemented by machines that carry a network backend,
// exposing it through the uniform Network interface.  Machines without
// one (Ideal) do not implement it.
type Backend interface {
	Network() Network
}
