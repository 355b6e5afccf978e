package machine

import (
	"spasm/internal/par"
	"spasm/internal/sim"
)

// ParPlan is a machine's domain/lookahead plan for the conservative
// parallel execution mode: how processes partition into clock-vector
// domains and how far ahead of the oldest incomplete span the release
// window may reach.  The lookahead is derived from the backend's minimum
// cross-domain interaction latency; it is purely a throughput knob — the
// kernel's ordered commit gate alone guarantees bit-identical results —
// so a generous bound costs nothing in correctness (see internal/sim's
// parallel mode).
type ParPlan struct {
	// DomainOf maps a process ID to its domain.
	DomainOf func(procID int) int
	// Lookahead is the release-window depth in simulated time.
	Lookahead sim.Time
	// Fallback, when non-empty, says why this machine kind cannot run in
	// windowed mode and must use the sequential kernel.
	Fallback string
}

// ParPlanFor derives the parallel plan for a machine configuration and
// worker count.  The parallel mode runs reference streams on a machine
// priced at issue (app.runOn), and LogP is the one such machine with a
// plan: every cross-node interaction is a network round trip costing at
// least the latency parameter L, so L is the minimum cross-domain link
// latency.  Any other kind falls back to the sequential kernel, so a
// machine that learns to price at issue does not go parallel unplanned.
//
// Domains partition process IDs contiguously (par.Partition), which
// groups ports by topology region: a contiguous ID range is a row block
// of the mesh/torus, an arc of the ring, or a subcube of the hypercube.
func ParPlanFor(cfg Config, workers int) ParPlan {
	cfg = cfg.withDefaults()
	if cfg.Kind != LogP {
		return ParPlan{Fallback: "no-plan-for-" + cfg.Kind.String()}
	}
	d := workers
	if cfg.P > 0 && d > cfg.P {
		d = cfg.P
	}
	if d < 1 {
		d = 1
	}
	return ParPlan{
		DomainOf:  par.Partition(cfg.P, d),
		Lookahead: cfg.L,
	}
}
