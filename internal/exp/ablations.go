package exp

import (
	"fmt"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/cache"
	"spasm/internal/coherence"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
	"spasm/internal/trace"
)

// This file implements the reproduction's extension studies — each one
// grounded in a specific claim or proposal in the paper, each simulating
// through the session (so a point another study already ran is not run
// again) except where its run is not a function of (application,
// machine configuration):
//
//   - ProtocolComparison (section 7, citing Wood et al.): performance
//     should not be very sensitive to the coherence protocol.  Compared:
//     Berkeley (the paper's target), plain MSI, and — to show where the
//     claim's invalidation-protocol scope ends — write-update.
//   - CacheSweep (section 2, citing Rothberg/Singh/Gupta): a 64 KB
//     cache captures the important working set of these applications.
//   - AdaptiveGapStudy (section 7 future work): g scaled online by the
//     observed fraction of bisection-crossing traffic.
//   - EffectiveLStudy (section 6.1): L's fixed 32-byte pricing separated
//     from its missing-coherence-traffic optimism.
//   - TraceDrivenStudy: execution-driven vs trace-driven methodology.
//   - BandwidthStudy: per-application communication demand (the
//     authors' companion TR).
//   - TechnologyStudy: link-bandwidth scaling vs abstraction accuracy.
//   - DegradedLinkStudy: a per-link fault the L/g abstraction cannot
//     express.
//   - TopologyStudy: the accuracy question asked of ring and torus.
//   - PlacementStudy: blocked vs interleaved data placement.
//   - ExtendedAppStudy: out-of-sample validation on the multigrid
//     workload.

// TraceRow compares execution-driven and trace-driven simulation of one
// application on the evaluation machine.
type TraceRow struct {
	App string
	// ExecDriven is the execution-driven execution time on the
	// evaluation machine (us).
	ExecDriven float64
	// TraceDriven is the execution time of replaying, on the
	// evaluation machine, a trace recorded on the recording machine.
	TraceDriven float64
	// Events is the trace length.
	Events int
}

// TraceDrivenStudy records every application's reference trace on the
// CLogP machine and replays it on the target machine, contrasting
// trace-driven against execution-driven simulation.  Two classic
// trace-driven artifacts appear: (a) inter-reference gaps recorded on
// the trace machine embed its *synchronization waiting* (spin-lock and
// barrier stalls), dilating the replay even for static applications;
// (b) dynamically scheduled applications (CHOLESKY) additionally carry
// the recording machine's task schedule into the replay.  Both are the
// methodological hazards the authors' companion work examines — the
// reason SPASM is execution-driven.
func (s *Session) TraceDrivenStudy(topo string, p int) ([]TraceRow, error) {
	var out []TraceRow
	for _, name := range apps.Names() {
		prog, err := apps.New(name, s.opt.Scale, s.opt.Seed)
		if err != nil {
			return nil, err
		}
		// Recording wraps the machine and replaying runs a trace, not
		// an application: neither is a session point.
		var rec *trace.Recorder
		recRes, err := app.Execute(prog, machine.Config{
			Kind: machine.CLogP, Topology: topo, P: p,
		}, app.Options{Wrap: func(m machine.Machine) machine.Machine {
			rec = trace.NewRecorder(m)
			return rec
		}})
		if err != nil {
			return nil, err
		}
		tr := rec.Trace(recRes.Space)

		execDriven, err := s.Run(point(name, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		replayed, err := app.Run(trace.Replay(tr), machine.Config{
			Kind: machine.Target, Topology: topo, P: p,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, TraceRow{
			App:         name,
			ExecDriven:  execDriven.Total.Micros(),
			TraceDriven: replayed.Stats.Total.Micros(),
			Events:      len(tr.Events),
		})
	}
	return out, nil
}

// ProtocolRow compares coherence protocols for one application.
type ProtocolRow struct {
	App      string
	Berkeley float64 // target execution time, us
	MSI      float64 // target execution time, us
	Update   float64 // target execution time, us (write-update protocol)
	CLogP    float64 // ideal-cache execution time, us
	// Per-protocol traffic volumes.
	BerkeleyMsgs uint64
	MSIMsgs      uint64
	UpdateMsgs   uint64
}

// ProtocolComparison runs the whole suite on the target machine under
// both protocols (plus the CLogP reference) at the given topology and
// processor count.
func (s *Session) ProtocolComparison(topo string, p int) ([]ProtocolRow, error) {
	var out []ProtocolRow
	for _, name := range apps.Names() {
		row := ProtocolRow{App: name}
		under := func(proto coherence.Protocol) (*stats.Run, error) {
			pt := point(name, topo, machine.Target, p)
			pt.Protocol = proto
			return s.Run(pt)
		}
		bk, err := under(coherence.Berkeley)
		if err != nil {
			return nil, err
		}
		ms, err := under(coherence.MSI)
		if err != nil {
			return nil, err
		}
		up, err := under(coherence.Update)
		if err != nil {
			return nil, err
		}
		cl, err := s.Run(point(name, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		row.Berkeley = bk.Total.Micros()
		row.MSI = ms.Total.Micros()
		row.Update = up.Total.Micros()
		row.CLogP = cl.Total.Micros()
		row.BerkeleyMsgs = bk.Messages()
		row.MSIMsgs = ms.Messages()
		row.UpdateMsgs = up.Messages()
		out = append(out, row)
	}
	return out, nil
}

// BandwidthRow characterizes one application's communication demand —
// the question of the authors' companion technical report "On
// characterizing bandwidth requirements of parallel applications".
type BandwidthRow struct {
	App string
	P   int
	// PerProcMBps is the application's true communication demand per
	// processor, measured on the ideal-cache machine (coherence
	// artifacts excluded): network bytes / processor / simulated
	// second, in MB/s.
	PerProcMBps float64
	// TargetMBps is the same measurement on the detailed target
	// machine, coherence traffic included.
	TargetMBps float64
	// LinkMBps is the per-link bandwidth of the modeled hardware, for
	// comparison (the paper's links are 20 MB/s).
	LinkMBps float64
}

// BandwidthStudy measures each application's per-processor bandwidth
// demand at the given processor count.
func (s *Session) BandwidthStudy(topo string, p int) ([]BandwidthRow, error) {
	const linkMBps = 20.0
	var out []BandwidthRow
	for _, name := range apps.Names() {
		cl, err := s.Run(point(name, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		tgt, err := s.Run(point(name, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		mbps := func(r *stats.Run) float64 {
			secs := r.Total.Micros() / 1e6
			if secs <= 0 {
				return 0
			}
			bytes := float64(r.Count(func(q *stats.Proc) uint64 { return q.NetBytes }))
			return bytes / float64(p) / secs / 1e6
		}
		out = append(out, BandwidthRow{
			App:         name,
			P:           p,
			PerProcMBps: mbps(cl),
			TargetMBps:  mbps(tgt),
			LinkMBps:    linkMBps,
		})
	}
	return out, nil
}

// CacheRow is one point of the cache-size sweep.
type CacheRow struct {
	SizeKB   int
	MissRate float64 // misses / references
	Exec     float64 // execution time, us
}

// CacheSweep runs one application on the target machine across cache
// sizes (keeping the paper's 2-way associativity and 32-byte blocks).
func (s *Session) CacheSweep(appName, topo string, p int, sizesKB []int) ([]CacheRow, error) {
	var out []CacheRow
	for _, kb := range sizesKB {
		pt := point(appName, topo, machine.Target, p)
		pt.Cache = cache.Config{SizeBytes: kb * 1024, BlockBytes: 32, Assoc: 2}
		r, err := s.Run(pt)
		if err != nil {
			return nil, fmt.Errorf("cache sweep %dKB: %w", kb, err)
		}
		hits := r.Count(func(q *stats.Proc) uint64 { return q.Hits })
		misses := r.Count(func(q *stats.Proc) uint64 { return q.Misses })
		row := CacheRow{SizeKB: kb, Exec: r.Total.Micros()}
		if hits+misses > 0 {
			row.MissRate = float64(misses) / float64(hits+misses)
		}
		out = append(out, row)
	}
	return out, nil
}

// AdaptiveRow is one sweep point of the adaptive-g study.
type AdaptiveRow struct {
	P        int
	Target   float64 // detailed-network contention, us
	Static   float64 // CLogP contention with the bisection-derived g
	Adaptive float64 // CLogP contention with history-scaled g
}

// AdaptiveGapStudy evaluates the paper's proposed history-based g
// estimation for one application and topology: the adaptive gap should
// land between the static estimate and the target, recovering the
// communication locality the static derivation ignores.
func (s *Session) AdaptiveGapStudy(appName, topo string, procs []int) ([]AdaptiveRow, error) {
	var out []AdaptiveRow
	for _, p := range procs {
		tgt, err := s.Run(point(appName, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		static, err := s.Run(point(appName, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		adaptivePt := point(appName, topo, machine.CLogP, p)
		adaptivePt.AdaptiveG = true
		adaptive, err := s.Run(adaptivePt)
		if err != nil {
			return nil, err
		}
		out = append(out, AdaptiveRow{
			P:        p,
			Target:   Value(ContentionOvh, tgt),
			Static:   Value(ContentionOvh, static),
			Adaptive: Value(ContentionOvh, adaptive),
		})
	}
	return out, nil
}

// ExtendedAppRow is one sweep point of the out-of-suite validation.
type ExtendedAppRow struct {
	P          int
	TargetExec float64
	CLogPExec  float64
	LogPExec   float64
	// CLogPLatencyRatio is CLogP/Target latency overhead — the
	// paper's primary accuracy measure, asked of a workload the paper
	// never ran.
	CLogPLatencyRatio float64
}

// ExtendedAppStudy runs an extension workload (e.g. the hierarchical
// multigrid solver) through the paper's machine comparison: an
// out-of-sample test of the abstractions on communication structure the
// original suite does not contain.
func (s *Session) ExtendedAppStudy(appName, topo string, procs []int) ([]ExtendedAppRow, error) {
	var out []ExtendedAppRow
	for _, p := range procs {
		tgt, err := s.Run(point(appName, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		cl, err := s.Run(point(appName, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		lp, err := s.Run(point(appName, topo, machine.LogP, p))
		if err != nil {
			return nil, err
		}
		row := ExtendedAppRow{
			P:          p,
			TargetExec: tgt.Total.Micros(),
			CLogPExec:  cl.Total.Micros(),
			LogPExec:   lp.Total.Micros(),
		}
		if tl := Value(LatencyOvh, tgt); tl > 0 {
			row.CLogPLatencyRatio = Value(LatencyOvh, cl) / tl
		}
		out = append(out, row)
	}
	return out, nil
}

// TopologyRow is one point of the extended-topology comparison.
type TopologyRow struct {
	Topology   string
	TargetExec float64 // detailed-network execution time, us
	CLogPExec  float64 // abstraction execution time, us
	Ratio      float64 // CLogP / Target
	G          sim.Time
}

// TopologyStudy runs one application on the target and CLogP machines
// across every available topology (the paper's three plus ring and
// torus), asking the paper's accuracy question of networks it did not
// measure.  Expectation from the paper's analysis: the lower the
// connectivity (ring worst), the more pessimistic the
// bisection-derived g makes the abstraction.
func (s *Session) TopologyStudy(appName string, p int) ([]TopologyRow, error) {
	var out []TopologyRow
	for _, topo := range network.Names() {
		tgt, err := s.Run(point(appName, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		cl, err := s.Run(point(appName, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		t, err := network.New(topo, p)
		if err != nil {
			return nil, err
		}
		row := TopologyRow{
			Topology:   topo,
			TargetExec: tgt.Total.Micros(),
			CLogPExec:  cl.Total.Micros(),
			G:          logp.GapFor(t, 32, sim.SerialByte),
		}
		if row.TargetExec > 0 {
			row.Ratio = row.CLogPExec / row.TargetExec
		}
		out = append(out, row)
	}
	return out, nil
}

// PlacementRow is one point of the data-placement study.
type PlacementRow struct {
	Placement  mem.Policy
	TargetExec float64
	Latency    float64 // target latency overhead, us
	Misses     uint64
}

// PlacementStudy contrasts the suite's natural blocked placement of
// CG's vectors against round-robin interleaving on the target machine:
// the locality the paper's cache abstraction must capture exists only
// if the data layout creates it in the first place.
func (s *Session) PlacementStudy(topo string, p int) ([]PlacementRow, error) {
	var out []PlacementRow
	for _, pol := range []mem.Policy{mem.Blocked, mem.Interleaved} {
		prog, err := apps.New("cg", s.opt.Scale, s.opt.Seed)
		if err != nil {
			return nil, err
		}
		// A mutated program is not a session point.
		prog.(*apps.CG).Placement = pol
		res, err := app.Run(prog, machine.Config{
			Kind: machine.Target, Topology: topo, P: p,
		})
		if err != nil {
			return nil, err
		}
		r := res.Stats
		out = append(out, PlacementRow{
			Placement:  pol,
			TargetExec: r.Total.Micros(),
			Latency:    sim.Time(r.Sum(stats.Latency)).Micros(),
			Misses:     r.Count(func(q *stats.Proc) uint64 { return q.Misses }),
		})
	}
	return out, nil
}

// FaultRow is one point of the degraded-link study.
type FaultRow struct {
	// Factor is the slowdown of the degraded link (1 = healthy).
	Factor int
	// TargetExec is the execution time on the detailed network, which
	// routes real circuits through the degraded link (us).
	TargetExec float64
	// CLogPExec is the abstraction's execution time — unchanged by
	// construction, since L and g carry no per-link information.
	CLogPExec float64
}

// DegradedLinkStudy injects a slow link into the middle of the mesh and
// measures the impact: the detailed target simulation sees circuits
// queueing behind the degraded link, while the L/g abstraction is
// structurally blind to any single-link property — a concrete boundary
// of the network abstraction the paper evaluates.
func (s *Session) DegradedLinkStudy(appName string, p int, factors []int) ([]FaultRow, error) {
	topo, err := network.New("mesh", p)
	if err != nil {
		return nil, err
	}
	mesh := topo.(*network.Mesh)
	// Degrade an east link in the middle of the mesh, on the row-0
	// path that X-first routing funnels traffic through.
	victim := (mesh.Cols()/2 - 1) * 4 // node (0, cols/2-1), east direction

	cl, err := s.Run(point(appName, "mesh", machine.CLogP, p))
	if err != nil {
		return nil, err
	}
	var out []FaultRow
	for _, factor := range factors {
		prog, err := apps.New(appName, s.opt.Scale, s.opt.Seed)
		if err != nil {
			return nil, err
		}
		// The degraded link is a machine wrap, not a session point.
		factor := factor
		res, err := app.Execute(prog, machine.Config{
			Kind: machine.Target, Topology: "mesh", P: p,
		}, app.Options{Wrap: func(m machine.Machine) machine.Machine {
			if factor > 1 {
				m.(machine.Networked).Fabric().Degrade(victim, factor)
			}
			return m
		}})
		if err != nil {
			return nil, err
		}
		out = append(out, FaultRow{
			Factor:     factor,
			TargetExec: res.Stats.Total.Micros(),
			CLogPExec:  cl.Total.Micros(),
		})
	}
	return out, nil
}

// TechRow is one point of the technology-scaling study.
type TechRow struct {
	LinkMBps float64
	// TargetExec and CLogPExec are execution times (us) at this link
	// speed; Ratio is CLogP/Target — how the abstraction's accuracy
	// moves as the network gets faster relative to the processor.
	TargetExec float64
	CLogPExec  float64
	Ratio      float64
}

// TechnologyStudy re-runs one application while scaling the link
// bandwidth (and, coherently, L and g, which are derived from it): as
// the network speeds up relative to the fixed 33 MHz processor, network
// overheads shrink and the abstractions converge on the target.
func (s *Session) TechnologyStudy(appName, topo string, p int, mbps []float64) ([]TechRow, error) {
	var out []TechRow
	for _, m := range mbps {
		// byteTime = 1e6/m bytes/s in Time units: 20 MB/s = 33 units.
		byteTime := sim.Micros(1.0 / m)
		if byteTime < 1 {
			byteTime = 1
		}
		at := func(kind machine.Kind) (*stats.Run, error) {
			pt := point(appName, topo, kind, p)
			pt.LinkByteTime = byteTime
			return s.Run(pt)
		}
		tgt, err := at(machine.Target)
		if err != nil {
			return nil, err
		}
		cl, err := at(machine.CLogP)
		if err != nil {
			return nil, err
		}
		row := TechRow{
			LinkMBps:   m,
			TargetExec: tgt.Total.Micros(),
			CLogPExec:  cl.Total.Micros(),
		}
		if row.TargetExec > 0 {
			row.Ratio = row.CLogPExec / row.TargetExec
		}
		out = append(out, row)
	}
	return out, nil
}

// LRow is one sweep point of the effective-L study.
type LRow struct {
	P             int
	MeanMsgBytes  float64
	TargetLatency float64 // us
	L32Latency    float64 // CLogP latency with the paper's 32-byte L
	EffLatency    float64 // CLogP latency with L from measured mean size
}

// EffectiveLStudy measures the target machine's mean message size for an
// application and re-derives L from it, quantifying how much of the
// L-parameter's latency pessimism is the fixed 32-byte assumption.
func (s *Session) EffectiveLStudy(appName, topo string, procs []int) ([]LRow, error) {
	var out []LRow
	for _, p := range procs {
		tgt, err := s.Run(point(appName, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		msgs := tgt.Messages()
		bytes := tgt.Count(func(q *stats.Proc) uint64 { return q.NetBytes })
		mean := 0.0
		if msgs > 0 {
			mean = float64(bytes) / float64(msgs)
		}
		l32, err := s.Run(point(appName, topo, machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		leff := sim.Time(mean * float64(sim.SerialByte))
		if leff < 1 {
			leff = 1
		}
		effPt := point(appName, topo, machine.CLogP, p)
		effPt.L = leff
		eff, err := s.Run(effPt)
		if err != nil {
			return nil, err
		}
		out = append(out, LRow{
			P:             p,
			MeanMsgBytes:  mean,
			TargetLatency: Value(LatencyOvh, tgt),
			L32Latency:    Value(LatencyOvh, l32),
			EffLatency:    Value(LatencyOvh, eff),
		})
	}
	return out, nil
}
