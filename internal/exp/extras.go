package exp

import (
	"time"

	"spasm/internal/apps"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/sim"
)

// This file implements the paper's experiments that are reported in the
// text rather than as numbered figures:
//
//   - S1 (section 7, "Speed of Simulation"): the cost of simulating each
//     machine characterization — the paper's CLogP simulation is 25-30%
//     faster than the target's, while the LogP simulation is *slower*
//     because ignoring locality multiplies network events.
//   - S2 (section 7): the gap-accounting ablation — enforcing g only
//     between identical communication events brings the contention
//     estimate much closer to the real network (FFT on the cube).
//   - S3 (section 5): the g-parameter table derived from bisection
//     bandwidth.

// CostRow reports the cost of simulating one machine characterization.
type CostRow struct {
	Machine machine.Kind
	// Wall is the host time spent simulating the whole application
	// suite.
	Wall time.Duration
	// Events is the total number of discrete events dispatched — the
	// host-independent measure of simulation cost.
	Events uint64
}

// SimulationCost runs the full application suite on every machine kind
// at the given topology and processor count and reports each
// characterization's simulation cost.
func (s *Session) SimulationCost(topo string, p int) ([]CostRow, error) {
	var out []CostRow
	for _, kind := range s.opt.Machines {
		row := CostRow{Machine: kind}
		for _, name := range apps.Names() {
			r, err := s.Run(point(name, topo, kind, p))
			if err != nil {
				return nil, err
			}
			row.Wall += r.Wall
			row.Events += r.SimEvents
		}
		out = append(out, row)
	}
	return out, nil
}

// AblationRow is one sweep point of the gap-discipline ablation.
type AblationRow struct {
	P           int
	Target      float64 // contention on the detailed network, us
	CombinedGap float64 // CLogP contention, strict LogP gap
	PerClassGap float64 // CLogP contention, per-event-class gap
}

// GapAblation reproduces the section-7 experiment over the session's
// processor sweep: FFT on the cube, with the g gap enforced between all
// network events (the LogP definition) versus only between identical
// events.  The per-class discipline should sit much closer to the target
// machine's contention.
func (s *Session) GapAblation() ([]AblationRow, error) {
	var out []AblationRow
	for _, p := range s.opt.Procs {
		tgt, err := s.Run(point("fft", "cube", machine.Target, p))
		if err != nil {
			return nil, err
		}
		com, err := s.Run(point("fft", "cube", machine.CLogP, p))
		if err != nil {
			return nil, err
		}
		perClass := point("fft", "cube", machine.CLogP, p)
		perClass.PortMode = logp.PerClass
		per, err := s.Run(perClass)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationRow{
			P:           p,
			Target:      Value(ContentionOvh, tgt),
			CombinedGap: Value(ContentionOvh, com),
			PerClassGap: Value(ContentionOvh, per),
		})
	}
	return out, nil
}

// GapRow is one entry of the g-parameter table.
type GapRow struct {
	Topology string
	P        int
	G        sim.Time
}

// GapTable computes the paper's g parameters (section 5) for every
// topology and processor count: 3.2/p us on the full network, 1.6 us on
// the cube, 0.8*columns us on the mesh.
func GapTable(procs []int) []GapRow {
	var out []GapRow
	for _, topo := range []string{"full", "cube", "mesh"} {
		for _, p := range procs {
			t, err := network.New(topo, p)
			if err != nil {
				continue
			}
			out = append(out, GapRow{
				Topology: topo,
				P:        p,
				G:        logp.GapFor(t, 32, sim.SerialByte),
			})
		}
	}
	return out
}

// SpeedupRow is one point of a scalability curve: the overhead-separated
// speedup analysis SPASM was originally built for (the authors'
// SIGMETRICS'94 companion paper).
type SpeedupRow struct {
	P int
	// Exec is the execution time on the studied machine (us).
	Exec float64
	// IdealExec is the execution time on the PRAM-like ideal machine
	// at the same P: the purely algorithmic component (serial part +
	// imbalance), with no architectural overheads.
	IdealExec float64
	// Speedup is T_ideal(1) / T(P): real speedup over the
	// single-processor ideal execution.
	Speedup float64
	// AlgorithmicSpeedup is T_ideal(1) / T_ideal(P): the best this
	// algorithm could do on any machine.
	AlgorithmicSpeedup float64
	// Efficiency is Speedup / P.
	Efficiency float64
}

// Speedup computes the scalability curve of one application on one
// machine characterization, against the ideal-machine baseline.
func (s *Session) Speedup(appName, topo string, kind machine.Kind, procs []int) ([]SpeedupRow, error) {
	base, err := s.Run(point(appName, topo, machine.Ideal, 1))
	if err != nil {
		return nil, err
	}
	t1 := base.Total.Micros()
	var out []SpeedupRow
	for _, p := range procs {
		r, err := s.Run(point(appName, topo, kind, p))
		if err != nil {
			return nil, err
		}
		ideal, err := s.Run(point(appName, topo, machine.Ideal, p))
		if err != nil {
			return nil, err
		}
		row := SpeedupRow{
			P:         p,
			Exec:      r.Total.Micros(),
			IdealExec: ideal.Total.Micros(),
		}
		if row.Exec > 0 {
			row.Speedup = t1 / row.Exec
			row.Efficiency = row.Speedup / float64(p)
		}
		if row.IdealExec > 0 {
			row.AlgorithmicSpeedup = t1 / row.IdealExec
		}
		out = append(out, row)
	}
	return out, nil
}
