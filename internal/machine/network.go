package machine

import (
	"spasm/internal/coherence"
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
// but every backend is also reachable behind this one seam: the
// conformance suite exercises all registered tiers through it, run
// results read model-cost counters through it, and tooling can swap
// tiers without knowing which machine wraps them.
type Network interface {
	// P reports the number of nodes.
	P() int
	// Reset returns the backend to its post-construction state in place
	// (the runpool rebind contract, docs/INTERNALS.md §9).
	Reset()
	// Settle tells the backend no future Xfer departs earlier than upTo
	// (a lower bound from the engine's global clock).  Backends that
	// keep no time-windowed state treat it as a no-op.
	Settle(upTo sim.Time)
	// Xfer carries one message of the given size from src to dst,
	// departing no earlier than now, and returns its schedule.
	Xfer(now sim.Time, src, dst, bytes int) NetDelivery
	// Stats reports the backend's cumulative traffic and model cost.
	Stats() NetStats
}

// NetDelivery is one message's schedule as a Network backend reports it.
type NetDelivery struct {
	// At is when the message is fully delivered.
	At sim.Time
	// Latency is the contention-free component of the transfer.
	Latency sim.Time
	// Wait is the contention-induced component (resource waiting,
	// port-gap stalls, or bandwidth-sharing stretch).
	Wait sim.Time
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

// fabricNet adapts the detailed fabric to the Network interface.
type fabricNet struct{ fab *network.Fabric }

func (a fabricNet) P() int               { return a.fab.Topology().P() }
func (a fabricNet) Reset()               { a.fab.Reset() }
func (a fabricNet) Settle(upTo sim.Time) {}

func (a fabricNet) Xfer(now sim.Time, src, dst, bytes int) NetDelivery {
	x := a.fab.Reserve(now, src, dst, bytes)
	return NetDelivery{At: x.End, Latency: x.Latency, Wait: x.Wait}
}

func (a fabricNet) Stats() NetStats {
	return NetStats{Messages: a.fab.Messages, Bytes: a.fab.Bytes, ModelEvents: a.fab.HopEvents}
}

// logpNet adapts the LogP abstraction to the Network interface.  The
// LogP model prices every message at L regardless of size, so bytes is
// accounted but does not affect timing.
type logpNet struct {
	net   *logp.Net
	bytes uint64
}

func (a *logpNet) P() int               { return a.net.P() }
func (a *logpNet) Reset()               { a.net.Reset(); a.bytes = 0 }
func (a *logpNet) Settle(upTo sim.Time) {}

func (a *logpNet) Xfer(now sim.Time, src, dst, bytes int) NetDelivery {
	at, wait := a.net.Deliver(now, src, dst)
	a.bytes += uint64(bytes)
	return NetDelivery{At: at, Latency: a.net.L, Wait: wait}
}

func (a *logpNet) Stats() NetStats {
	// Two port gatings (send and receive) per message.
	return NetStats{Messages: a.net.Messages, Bytes: a.bytes, ModelEvents: 2 * a.net.Messages}
}

// flowNet adapts the flow tier to the Network interface.
type flowNet struct{ net *flow.Net }

func (a flowNet) P() int               { return a.net.P() }
func (a flowNet) Reset()               { a.net.Reset() }
func (a flowNet) Settle(upTo sim.Time) { a.net.Settle(upTo) }

func (a flowNet) Xfer(now sim.Time, src, dst, bytes int) NetDelivery {
	x := a.net.Transfer(now, src, dst, bytes)
	return NetDelivery{At: x.End, Latency: x.Latency, Wait: x.Wait}
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

// NetworkTier is one registered network backend, constructible on its
// own for conformance checks and tooling.
type NetworkTier struct {
	// Name identifies the tier: "detailed", "logp" or "flow".
	Name string
	// New builds the tier over the named topology with the paper's
	// default parameters.
	New func(topoName string, p int) (Network, error)
}

// NetworkTiers lists every registered network backend in increasing
// level of detail: the flow tier, the LogP abstraction, the detailed
// fabric.  The conformance suite runs all of them through the same
// invariant checks.
func NetworkTiers() []NetworkTier {
	return []NetworkTier{
		{Name: "flow", New: func(topoName string, p int) (Network, error) {
			t, err := network.New(topoName, p)
			if err != nil {
				return nil, err
			}
			return flowNet{net: flow.New(t)}, nil
		}},
		{Name: "logp", New: func(topoName string, p int) (Network, error) {
			t, err := network.New(topoName, p)
			if err != nil {
				return nil, err
			}
			d := Config{}.withDefaults()
			g := logp.GapFor(t, coherence.DefaultCosts().DataBytes, d.LinkByteTime)
			return &logpNet{net: logp.New(p, d.L, g, logp.Combined)}, nil
		}},
		{Name: "detailed", New: func(topoName string, p int) (Network, error) {
			t, err := network.New(topoName, p)
			if err != nil {
				return nil, err
			}
			return fabricNet{fab: network.NewFabric(t)}, nil
		}},
	}
}
