// Package machine assembles the paper's four simulated machine
// characterizations from the substrate packages:
//
//   - Target: CC-NUMA with per-node Berkeley-coherent caches and a
//     detailed circuit-switched wormhole network (full, cube or mesh).
//   - LogP: no caches; every non-local reference crosses a network
//     abstracted by the LogP L and g parameters.
//   - CLogP ("LogP+cache"): the LogP network plus an ideal coherent
//     cache at each node — coherence state is maintained exactly but
//     coherence actions are free.
//   - Ideal: a PRAM-like machine with unit-cost conflict-free memory,
//     used to measure the ideal (purely algorithmic) execution time.
//
// All four implement the Machine interface, so one application binary
// runs unmodified on any of them — the essence of execution-driven
// simulation with interchangeable architectural models.
package machine

import (
	"fmt"

	"spasm/internal/cache"
	"spasm/internal/coherence"
	"spasm/internal/flow"
	"spasm/internal/logp"
	"spasm/internal/mem"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Kind identifies a machine characterization.
type Kind int

const (
	// Ideal is the PRAM-like machine behind SPASM's ideal-time metric.
	Ideal Kind = iota
	// LogP is the cache-less machine with the L/g network abstraction.
	LogP
	// CLogP is the LogP machine augmented with the ideal coherent cache.
	CLogP
	// Target is the detailed CC-NUMA machine.
	Target
	// Flow is the cache-less machine with the flow-based
	// bandwidth-sharing network abstraction — the coarsest network tier.
	Flow
)

var kindNames = [...]string{"ideal", "logp", "clogp", "target", "flow"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind converts a name ("ideal", "flow", "logp", "clogp",
// "target") to Kind.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("machine: unknown kind %q (have %v)", s, kindNames)
}

// Kinds lists all machine kinds in comparison order, coarsest
// abstraction first.
func Kinds() []Kind { return []Kind{Ideal, Flow, LogP, CLogP, Target} }

// Machine is a simulated memory system: the only interface applications
// see, so the same program drives every characterization.
type Machine interface {
	// Kind reports which characterization this is.
	Kind() Kind
	// P reports the number of processing nodes.
	P() int
	// Read simulates a shared-memory read by node at addr on behalf of
	// process p, blocking p for the sequentially consistent duration
	// and accounting overheads into st.
	Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr)
	// Write simulates a shared-memory write, like Read.
	Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr)
}

// PricedAtIssue is implemented by machines that price a whole reference
// from the state of the model when it is issued — LogP from L, g and its
// port calendars, Flow from the bandwidth shares of the flows in flight,
// Ideal from its unit cost — so nothing has to wait inside them, and a
// processor whose references are known without running it (app.Stream)
// needs no coroutine.  A decorator — the trace recorder — hides it: a
// recorded machine is driven through Read and Write.
type PricedAtIssue interface {
	Machine
	// Issue prices a read or write of addr issued by node at its local
	// time now, without blocking: it books the reference's messages,
	// accounts it into st, and returns when it completes and whether the
	// process waits for that as an engine event — a remote reference on
	// LogP — or defers it as local time and reads on, as every reference
	// on Flow and Ideal does.  at is the engine clock when the issuing
	// process was dispatched, a floor under every processor's local clock.
	Issue(st *stats.Proc, at, now sim.Time, node int, addr mem.Addr, write bool) (done sim.Time, wait bool)
}

// issue is Read or Write on a machine priced at issue: a coroutine's
// engine clock is the one it was dispatched at, since no parallel window
// runs coroutines.
func issue(m PricedAtIssue, p *sim.Proc, st *stats.Proc, node int, addr mem.Addr, write bool) {
	done, wait := m.Issue(st, p.Engine().Now(), p.Now(), node, addr, write)
	if wait {
		p.HoldUntil(done)
		return
	}
	p.Defer(done - p.Now())
}

// Config selects and parameterizes a machine.
type Config struct {
	Kind     Kind
	P        int
	Topology string // "full", "cube" or "mesh"
	// Cache geometry for Target and CLogP; zero value means the
	// paper's 64 KB 2-way 32 B cache.
	Cache cache.Config
	// L overrides the LogP latency parameter (0 means the paper's
	// 1.6 us).  The gap g is always derived from the topology's
	// bisection bandwidth, exactly as the paper does.
	L sim.Time
	// PortMode selects the g-gap discipline for LogP machines.
	PortMode logp.PortMode
	// AdaptiveG enables the history-based g estimation the paper
	// proposes in section 7: the gap is scaled by the observed
	// fraction of traffic that actually crosses the bisection.
	AdaptiveG bool
	// LinkByteTime is the per-byte link transmission time (0 means
	// the paper's 20 MB/s serial links).  It scales the detailed
	// fabric, the default L, and the bisection-derived g together —
	// the technology-scaling knob.
	LinkByteTime sim.Time
	// Protocol selects the coherence protocol for the cached machines
	// (Berkeley by default, the paper's target; MSI for the
	// protocol-sensitivity experiment).
	Protocol coherence.Protocol
}

// Canonical returns the configuration with every defaulted field made
// explicit (topology name, cache geometry, link speed, L).  Two
// configurations that build identical machines canonicalize to the same
// value, which is what makes Config usable as a pooling key: app.Pool
// keys contexts by Canonical() so `Topology: ""` and `Topology: "full"`
// share a context.  Canonical does not fill P — a machine cannot be
// pooled without knowing its node count.
func (c Config) Canonical() Config { return c.withDefaults() }

// withDefaults fills zero fields with the paper's parameters.
func (c Config) withDefaults() Config {
	if c.Topology == "" {
		c.Topology = "full"
	}
	if c.Cache == (cache.Config{}) {
		c.Cache = cache.DefaultConfig()
	}
	if c.LinkByteTime == 0 {
		c.LinkByteTime = sim.SerialByte
	}
	if c.L == 0 {
		c.L = sim.Time(coherence.DefaultCosts().DataBytes) * c.LinkByteTime
	}
	return c
}

// New builds the configured machine over the given address space.
func New(cfg Config, space *mem.Space) (Machine, error) {
	cfg = cfg.withDefaults()
	costs := coherence.DefaultCosts()
	if cfg.P == 0 {
		cfg.P = space.P()
	}
	if cfg.P != space.P() {
		return nil, fmt.Errorf("machine: config P=%d but space has %d nodes", cfg.P, space.P())
	}
	if max := MaxPFor(cfg.Kind); max > 0 && cfg.P > max {
		return nil, fmt.Errorf("machine: P=%d exceeds the %v machine's limit of %d processors",
			cfg.P, cfg.Kind, max)
	}
	switch cfg.Kind {
	case Ideal:
		return &ideal{p: cfg.P, unit: costs.CacheHit}, nil
	case LogP, CLogP:
		topo, err := network.New(cfg.Topology, cfg.P)
		if err != nil {
			return nil, err
		}
		net := logp.New(cfg.P, cfg.L, logp.GapFor(topo, costs.DataBytes, cfg.LinkByteTime), cfg.PortMode)
		if cfg.AdaptiveG {
			net.Crosses = topo.CrossesBisection
		}
		if cfg.Kind == LogP {
			return &logpMachine{space: space, net: net, costs: costs}, nil
		}
		tr := &clogpTransport{net: net}
		eng := coherence.NewEngine(space, cfg.Cache, costs, tr)
		eng.Protocol = cfg.Protocol
		return &cachedMachine{kind: CLogP, space: space, eng: eng, net: net}, nil
	case Flow:
		topo, err := network.New(cfg.Topology, cfg.P)
		if err != nil {
			return nil, err
		}
		net := flow.New(topo)
		net.ByteTime = cfg.LinkByteTime
		return &flowMachine{space: space, net: net, costs: costs}, nil
	case Target:
		topo, err := network.New(cfg.Topology, cfg.P)
		if err != nil {
			return nil, err
		}
		fab := network.NewFabric(topo)
		fab.ByteTime = cfg.LinkByteTime
		tr := &targetTransport{fab: fab}
		eng := coherence.NewEngine(space, cfg.Cache, costs, tr)
		eng.Protocol = cfg.Protocol
		return &cachedMachine{kind: Target, space: space, eng: eng, fab: fab}, nil
	}
	return nil, fmt.Errorf("machine: unknown kind %d", cfg.Kind)
}

// ideal is the PRAM-like machine: unit-cost, conflict-free memory.
type ideal struct {
	p    int
	unit sim.Time
}

func (m *ideal) Kind() Kind { return Ideal }
func (m *ideal) P() int     { return m.p }

// Issue implements PricedAtIssue: every reference is local work.
func (m *ideal) Issue(st *stats.Proc, _, now sim.Time, _ int, _ mem.Addr, write bool) (sim.Time, bool) {
	count(st, write)
	st.Add(stats.Memory, m.unit)
	return now + m.unit, false
}

func (m *ideal) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, false)
}

func (m *ideal) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, true)
}

// count tallies a reference as a read or a write.
func count(st *stats.Proc, write bool) {
	if write {
		st.Writes++
	} else {
		st.Reads++
	}
}

// logpMachine is the cache-less LogP machine: local references cost a
// memory access; every non-local reference is a request/reply round trip
// on the abstract network, as on a NUMA machine without caches.
type logpMachine struct {
	space *mem.Space
	net   *logp.Net
	costs coherence.Costs
}

func (m *logpMachine) Kind() Kind { return LogP }
func (m *logpMachine) P() int     { return m.net.P() }

// roundTrip books and accounts the request/reply pair of a remote
// reference — the LogP machine's whole model, written down once — and
// returns when the reply is delivered.
func (m *logpMachine) roundTrip(st *stats.Proc, now sim.Time, node, home int) sim.Time {
	asked, reqWait := m.net.Deliver(now, node, home, m.costs.CtrlBytes)
	done, repWait := m.net.Deliver(asked+m.costs.Mem, home, node, m.costs.DataBytes)
	st.Messages += 2
	st.NetBytes += uint64(m.costs.CtrlBytes + m.costs.DataBytes)
	st.NetAccesses++
	st.Add(stats.Latency, 2*m.net.L)
	st.Add(stats.Contention, reqWait+repWait)
	return done
}

// Issue implements PricedAtIssue: a remote reference waits for its reply.
func (m *logpMachine) Issue(st *stats.Proc, _, now sim.Time, node int, addr mem.Addr, write bool) (sim.Time, bool) {
	count(st, write)
	st.Add(stats.Memory, m.costs.Mem)
	if home := m.space.Home(addr); home != node {
		return m.roundTrip(st, now, node, home), true
	}
	return now + m.costs.Mem, false
}

func (m *logpMachine) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, false)
}

func (m *logpMachine) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, true)
}

// flowMachine is the cache-less flow-abstracted machine: like the LogP
// machine, every non-local reference is a request/reply round trip, but
// the network prices messages by bandwidth sharing (internal/flow) and
// the processor advances on its *local clock alone* — a remote access
// costs no engine event, which is where the flow tier's simulator-event
// reduction comes from.  Delivery times can therefore be computed out of
// global-time order across processors; that is safe because the flow
// model is a pure function of its call sequence and the call sequence
// is fixed by the engine's deterministic scheduling, not by network
// state.
type flowMachine struct {
	space *mem.Space
	net   *flow.Net
	costs coherence.Costs
}

func (m *flowMachine) Kind() Kind { return Flow }
func (m *flowMachine) P() int     { return m.net.P() }

// Issue implements PricedAtIssue: the round trip is priced on the local
// clock and never waited for.
func (m *flowMachine) Issue(st *stats.Proc, at, now sim.Time, node int, addr mem.Addr, write bool) (sim.Time, bool) {
	count(st, write)
	st.Add(stats.Memory, m.costs.Mem)
	home := m.space.Home(addr)
	if home == node {
		return now + m.costs.Mem, false
	}
	// at bounds every processor's local clock from below, so flows
	// settled before it can never compete again.
	m.net.Settle(at)
	req := m.net.Transfer(now, node, home, m.costs.CtrlBytes)
	rep := m.net.Transfer(req.End+m.costs.Mem, home, node, m.costs.DataBytes)
	st.Messages += 2
	st.NetBytes += uint64(m.costs.CtrlBytes + m.costs.DataBytes)
	st.NetAccesses++
	st.Add(stats.Latency, req.Latency+rep.Latency)
	st.Add(stats.Contention, req.Wait+rep.Wait)
	return rep.End, false
}

func (m *flowMachine) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, false)
}

func (m *flowMachine) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	issue(m, p, st, node, addr, true)
}

// Networked is implemented by the Target machine, exposing its detailed
// fabric for fault injection (Degrade), the one fabric-only operation;
// everything else reaches a network through Backend.
type Networked interface {
	Fabric() *network.Fabric
}

// Network exposes the flow machine's backend behind the uniform seam.
func (m *flowMachine) Network() Network { return flowNet{net: m.net} }

// Network exposes the LogP machine's backend behind the uniform seam.
func (m *logpMachine) Network() Network { return logpNet{net: m.net} }

// Network exposes a cached machine's backend behind the uniform seam:
// the detailed fabric for Target, the LogP net for CLogP.
func (m *cachedMachine) Network() Network {
	if m.fab != nil {
		return fabricNet{fab: m.fab}
	}
	return logpNet{net: m.net}
}

// cachedMachine wraps the shared coherence engine for Target and CLogP.
type cachedMachine struct {
	kind  Kind
	space *mem.Space
	eng   *coherence.Engine
	fab   *network.Fabric // Target only
	net   *logp.Net       // CLogP only
}

func (m *cachedMachine) Kind() Kind { return m.kind }
func (m *cachedMachine) P() int     { return m.space.P() }

// Fabric exposes the detailed network of a Target machine (nil otherwise).
func (m *cachedMachine) Fabric() *network.Fabric { return m.fab }

func (m *cachedMachine) Read(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	m.eng.Read(p, st, node, addr)
}

func (m *cachedMachine) Write(p *sim.Proc, st *stats.Proc, node int, addr mem.Addr) {
	m.eng.Write(p, st, node, addr)
}

// targetTransport prices every protocol message on the detailed fabric.
type targetTransport struct {
	fab *network.Fabric
}

func (t *targetTransport) Message(now sim.Time, src, dst, bytes int, class coherence.Class) coherence.Delivery {
	x := t.fab.Reserve(now, src, dst, bytes)
	return coherence.Delivery{At: x.End, Latency: x.Latency, Wait: x.Wait, Sent: true}
}

// clogpTransport prices only data-moving messages on the LogP network;
// coherence-maintenance messages are absorbed for free — the ideal
// coherent cache.
type clogpTransport struct {
	net *logp.Net
}

func (t *clogpTransport) Message(now sim.Time, src, dst, bytes int, class coherence.Class) coherence.Delivery {
	if !class.MovesData() {
		return coherence.Delivery{At: now}
	}
	at, wait := t.net.Deliver(now, src, dst, bytes)
	return coherence.Delivery{At: at, Latency: t.net.L, Wait: wait, Sent: true}
}
