package exp

import (
	"fmt"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/cache"
	"spasm/internal/coherence"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
	"spasm/internal/trace"
)

// This file implements the reproduction's extension studies that are not
// rows of the error matrix — each one grounded in a specific claim or
// proposal in the paper, each simulating through the session (so a point
// another study already ran is not run again) except where its run is
// not a function of (application, machine configuration):
//
//   - ProtocolComparison (section 7, citing Wood et al.): performance
//     should not be very sensitive to the coherence protocol.  Compared:
//     Berkeley (the paper's target), plain MSI, and — to show where the
//     claim's invalidation-protocol scope ends — write-update.
//   - CacheSweep (section 2, citing Rothberg/Singh/Gupta): a 64 KB
//     cache captures the important working set of these applications.
//   - TraceDrivenStudy: execution-driven vs trace-driven methodology.
//   - BandwidthStudy: per-application communication demand (the
//     authors' companion TR).
//   - PlacementStudy: blocked vs interleaved data placement.
//
// The studies that ask how far an abstraction sits from the target under
// a changed machine (remedies for g and L, link speed, a slow link,
// topology, an application outside the suite) are variant rows and
// selections of the error matrix (accuracy.go).

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
		tr, _, err := trace.Record(prog, machine.Config{
			Kind: machine.CLogP, Topology: topo, P: p,
		})
		if err != nil {
			return nil, err
		}

		execDriven, err := s.Run(point(name, topo, machine.Target, p))
		if err != nil {
			return nil, err
		}
		replayed, err := app.Execute(trace.Replay(tr), machine.Config{
			Kind: machine.Target, Topology: topo, P: p,
		}, app.Options{})
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
		res, err := app.Execute(prog, machine.Config{
			Kind: machine.Target, Topology: topo, P: p,
		}, app.Options{})
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
