package app

import (
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Phase profiling: SPASM's overhead separation applied per program
// phase, so an analysis can say not just *how much* latency or
// contention a run accumulated but *which part of the program* caused it
// (the instrument behind the paper's per-phase arguments, e.g. "during
// the communication phase in FFT...").
//
// A program calls p.Phase("transpose") at each phase boundary; the
// framework attributes all overheads between boundaries to the named
// phase, per processor, and aggregates them in the run's PhaseProfile.

// PhaseStats aggregates the overheads attributed to one named phase.
type PhaseStats struct {
	Name string
	// Time sums each overhead bucket across processors.
	Time [stats.NumBuckets]sim.Time
	// Wall sums the processors' elapsed local time in the phase.
	Wall sim.Time
	// Visits counts processor entries into the phase.
	Visits int
}

// PhaseProfile collects PhaseStats for a run, in first-entry order.
type PhaseProfile struct {
	phases map[string]*PhaseStats
	order  []string
}

// newPhaseProfile returns an empty profile.
func newPhaseProfile() *PhaseProfile {
	return &PhaseProfile{phases: map[string]*PhaseStats{}}
}

// Phases returns all phases in first-entry order.
func (pp *PhaseProfile) Phases() []*PhaseStats {
	out := make([]*PhaseStats, 0, len(pp.order))
	for _, n := range pp.order {
		out = append(out, pp.phases[n])
	}
	return out
}

func (pp *PhaseProfile) add(name string, dt [stats.NumBuckets]sim.Time, wall sim.Time) {
	ps, ok := pp.phases[name]
	if !ok {
		ps = &PhaseStats{Name: name}
		pp.phases[name] = ps
		pp.order = append(pp.order, name)
	}
	for b := range dt {
		ps.Time[b] += dt[b]
	}
	ps.Wall += wall
	ps.Visits++
}

// Phase marks a phase boundary: all overheads since the previous
// boundary (or the processor's start) are attributed to the previous
// phase, and subsequent overheads accrue to the named one.  Programs
// that never call Phase incur no profiling cost.
func (p *Proc) Phase(name string) {
	p.closePhase()
	p.phase = name
	p.phaseT0 = p.Now()
	p.phaseSnap = p.St.Time
}

// closePhase attributes the open phase interval, if any.  The runner
// calls it after Body returns.
func (p *Proc) closePhase() {
	if p.phase == "" {
		return
	}
	var dt [stats.NumBuckets]sim.Time
	for b := range dt {
		dt[b] = p.St.Time[b] - p.phaseSnap[b]
	}
	p.Ctx.Phases.add(p.phase, dt, p.Now()-p.phaseT0)
	p.phase = ""
}
