package spasm

import (
	"errors"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/flow"
	"spasm/internal/machine"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Adaptive fidelity: a run starts on the cheap flow network tier and is
// redone on the detailed target machine the moment the flow model sees
// contention worth modeling per hop.
//
// The escalation signal is the bottleneck occupancy of each admitted
// flow (flow.Xmit.Occupancy): the fraction of the flow's most-loaded
// resource claimed by competitors.  While every flow is (nearly)
// uncontended the flow model's delivery times match the circuit-switched
// fabric closely and the run stays on the cheap tier; once sharing
// appears, per-hop link state starts to matter and the run restarts on
// the target machine.  A threshold of 0 trips on the very first flow —
// the escalated run is then exactly a detailed-tier run — and a
// threshold of 100 never trips (occupancy is strictly below 100).
//
// Escalation is restart-based, not live-migration: the flow attempt is
// cooperatively aborted (the same mechanism as RunControl timeouts) and
// the application re-runs from scratch on the detailed machine.
// Determinism is preserved — whether a spec escalates, and everything
// after it does, is a pure function of the spec.

// Escalation is the record of one adaptive-fidelity decision, attached
// to Result.Escalation by adaptive runs.
type Escalation = app.Escalation

// escalationMonitor is the app.Instrument that watches the flow tier's
// contention from inside a run.  It chains the flow net's Observer (so
// telemetry attached before it keeps working) and interrupts the engine
// on the first flow whose bottleneck occupancy reaches the threshold.
type escalationMonitor struct {
	threshold int
	eng       *sim.Engine
	tripped   bool
	at        sim.Time
	share     int
}

func (mon *escalationMonitor) Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine) {
	fm, ok := m.(machine.Flowed)
	if !ok || fm.FlowNet() == nil {
		return
	}
	mon.eng = eng
	fn := fm.FlowNet()
	prev := fn.Observer
	fn.Observer = func(now sim.Time, x flow.Xmit, src, dst, bytes int) {
		if prev != nil {
			prev(now, x, src, dst, bytes)
		}
		if !mon.tripped && x.Occupancy() >= mon.threshold {
			mon.tripped = true
			mon.at = now
			mon.share = x.Share
			// Cooperative abort: the engine unwinds every process at its
			// next event dispatch, exactly as a RunControl timeout would.
			mon.eng.Interrupt()
		}
	}
}

func (mon *escalationMonitor) Finish(res *app.Result) {}

// runAdaptive executes an adaptive spec: a flow-tier attempt watched by
// an escalationMonitor, redone on the detailed target machine if the
// contention threshold trips.  Timeout and cancellation take precedence
// over escalation — a run aborted by its RunControl reports that error
// even if the threshold also fired.  Both the escalated and the
// untripped case record the decision on Result.Escalation.
func runAdaptive(spec Spec, run app.Options) (*Result, error) {
	prog, err := apps.Lookup(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	mon := &escalationMonitor{threshold: spec.EscalatePct}
	watched := run
	watched.Instrument = mon
	res, err := app.Execute(prog, spec.Config(), watched)
	if err != nil {
		if errors.Is(err, ErrRunTimeout) || errors.Is(err, ErrRunCanceled) || !mon.tripped {
			return nil, err
		}
		// The abort is the monitor's own interrupt: fall through to the
		// detailed run.
	}
	esc := &Escalation{From: Flow, To: Flow, ThresholdPct: spec.EscalatePct}
	if !mon.tripped {
		res.Escalation = esc
		return res, nil
	}
	// Escalate: rebuild the program (the flow attempt consumed the first
	// instance's host-memory state) and rerun on the target machine.
	prog, err = apps.Lookup(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config()
	cfg.Kind = machine.Target
	res, err = app.Execute(prog, cfg, run)
	if err != nil {
		return nil, err
	}
	esc.To, esc.Tripped, esc.At, esc.Share = Target, true, mon.at, mon.share
	res.Escalation = esc
	return res, nil
}
