// Package spasm is a Go reproduction of the simulation study in
// "Abstracting Network Characteristics and Locality Properties of
// Parallel Systems" (Sivasubramaniam, Singla, Ramachandran,
// Venkateswaran; HPCA 1995): an execution-driven simulator in the style
// of SPASM that runs a suite of parallel applications on interchangeable
// machine characterizations of a CC-NUMA multiprocessor —
//
//   - Target: per-node Berkeley-coherent caches over a detailed
//     circuit-switched wormhole network (fully connected, hypercube or
//     2-D mesh);
//   - LogP: no caches, the network abstracted by the LogP L and g
//     parameters;
//   - LogP+Cache (CLogP): the LogP network plus an ideal coherent cache
//     whose coherence actions cost nothing;
//   - Flow: no caches, the network abstracted as bandwidth-sharing
//     flows with max-min fair allocation (the coarsest network tier);
//   - Ideal: a PRAM-like machine for the ideal-time metric.
//
// SPASM-style overhead separation (compute / memory / latency /
// contention / synchronization) is measured for every run, and the
// experiment layer regenerates all twenty figures of the paper's
// evaluation plus its textual experiments (simulation cost, the
// g-discipline ablation, and the g-parameter table).
//
// # Quick start
//
//	res, err := spasm.Run("fft", spasm.Small, 1, spasm.Config{
//		Kind:     spasm.Target,
//		Topology: "mesh",
//		P:        16,
//	})
//	if err != nil { ... }
//	fmt.Println(res.Stats)
//
// To regenerate a paper figure:
//
//	s := spasm.NewSession(spasm.Options{})
//	fig, _ := spasm.FigureByNumber(7) // IS on Mesh: Contention
//	fr, err := s.Figure(fig)
//	fmt.Println(spasm.FigureChart(fr, 78, 22))
//
// Custom applications implement the Program interface against the Proc
// API (Compute, Read, Write, locks, flags, barriers); see
// examples/custom_app.
//
// Runs described by a Spec go through Execute, whose RunOptions select
// pooled contexts, a telemetry profile, and failure containment: a
// RunControl Timeout or Cancel channel cooperatively aborts the run
// (ErrRunTimeout, ErrRunCanceled), unwinding every simulated-process
// goroutine before returning.
package spasm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/coherence"
	"spasm/internal/exp"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/probe"
	"spasm/internal/report"
	"spasm/internal/sim"
	"spasm/internal/stats"
	"spasm/internal/trace"
)

// Core configuration and result types.
type (
	// Config selects and parameterizes a machine characterization.
	Config = machine.Config
	// Kind identifies a machine characterization.
	Kind = machine.Kind
	// Result is one run's statistics plus its configuration.
	Result = app.Result
	// RunStats is the per-run, per-processor overhead breakdown.
	RunStats = stats.Run
	// ProcStats is one processor's overhead and event counters.
	ProcStats = stats.Proc
	// Bucket labels one overhead category.
	Bucket = stats.Bucket
	// Time is simulated time (660 units per microsecond).
	Time = sim.Time
)

// Machine characterizations.
const (
	Ideal  = machine.Ideal
	Flow   = machine.Flow
	LogP   = machine.LogP
	CLogP  = machine.CLogP
	Target = machine.Target
)

// Overhead buckets.
const (
	Compute    = stats.Compute
	Memory     = stats.Memory
	Latency    = stats.Latency
	Contention = stats.Contention
	Sync       = stats.Sync
)

// Application-authoring API (see examples/custom_app).
type (
	// Program is a parallel application runnable on any machine.
	Program = app.Program
	// Proc is the per-processor handle a Program's Body uses.
	Proc = app.Proc
	// Ctx is the shared context a Program allocates into.
	Ctx = app.Ctx
	// SpinLock is a test-test&set lock on simulated shared memory.
	SpinLock = app.SpinLock
	// Flag is a shared-memory condition variable.
	Flag = app.Flag
	// Barrier is a centralized sense-reversing barrier.
	Barrier = app.Barrier
	// PhaseProfile is a run's per-phase overhead separation.
	PhaseProfile = app.PhaseProfile
	// PhaseStats aggregates the overheads of one named phase.
	PhaseStats = app.PhaseStats
	// Array is a shared-memory allocation.
	Array = mem.Array
	// Addr is a simulated shared-memory address.
	Addr = mem.Addr
)

// Placement policies for shared arrays.
const (
	Blocked     = mem.Blocked
	Interleaved = mem.Interleaved
)

// Workload scales.
type Scale = apps.Scale

const (
	Tiny   = apps.Tiny
	Small  = apps.Small
	Medium = apps.Medium
)

// Experiment layer.
type (
	// Options configures an experiment Session.
	Options = exp.Options
	// Session runs sweeps with caching.
	Session = exp.Session
	// Figure identifies one paper figure.
	Figure = exp.Figure
	// FigureResult is a regenerated figure.
	FigureResult = exp.FigureResult
	// Metric selects what a figure plots.
	Metric = exp.Metric
	// CostRow reports a machine's simulation cost.
	CostRow = exp.CostRow
	// Selection picks rows of the abstraction-error matrix, paper
	// variants included (Session.ErrorMatrix).
	Selection = exp.Selection
	// GapRow is one entry of the g-parameter table.
	GapRow = exp.GapRow
	// PortMode selects the LogP gap discipline.
	PortMode = logp.PortMode
)

// Gap disciplines and figure metrics.
const (
	CombinedGap = logp.Combined
	PerClassGap = logp.PerClass

	ExecTime      = exp.ExecTime
	LatencyOvh    = exp.LatencyOvh
	ContentionOvh = exp.ContentionOvh
)

// Apps lists the available applications ("cg", "cholesky", "ep", "fft",
// "is").
func Apps() []string { return apps.Names() }

// ExtendedApps lists the extension workloads beyond the paper's suite
// (currently "mg", a hierarchical multigrid solver).
func ExtendedApps() []string { return apps.ExtendedNames() }

// Machines lists the machine characterizations in comparison order.
func Machines() []Kind { return machine.Kinds() }

// Figures lists the paper's twenty evaluation figures.
func Figures() []Figure { return exp.Figures }

// FigureByNumber returns paper figure n (1-20).
func FigureByNumber(n int) (Figure, error) { return exp.ByNumber(n) }

// ParseMetric converts "latency", "contention" or "exec" to a Metric.
func ParseMetric(name string) (Metric, error) { return exp.ParseMetric(name) }

// Run builds the named application (paper suite or extension workload)
// at the given scale and seed and simulates it on the configured
// machine.  Unlike a Spec, a Config can carry cache geometry, cost and
// L/g overrides.
func Run(appName string, scale Scale, seed int64, cfg Config) (*Result, error) {
	prog, err := apps.Lookup(appName, scale, seed)
	if err != nil {
		return nil, err
	}
	return app.Run(prog, cfg)
}

// RunProgram simulates a user-supplied Program on the configured machine.
func RunProgram(prog Program, cfg Config) (*Result, error) {
	return app.Run(prog, cfg)
}

// NewSession returns an experiment session.
func NewSession(opt Options) *Session { return exp.NewSession(opt) }

// GapTable computes the paper's g parameters for the given processor
// counts on every topology.
func GapTable(procs []int) []GapRow { return exp.GapTable(procs) }

// FigureTable renders a regenerated figure as a fixed-width table.
func FigureTable(fr *FigureResult) string { return report.FigureTable(fr).String() }

// FigureCSV renders a regenerated figure as CSV.
func FigureCSV(fr *FigureResult) string { return report.FigureCSV(fr) }

// FigureChart renders a regenerated figure as an ASCII line chart.
func FigureChart(fr *FigureResult, width, height int) string {
	return report.Chart(fr, width, height)
}

// PhaseReport renders a run's per-phase overhead separation (populated
// when the program marks phases with Proc.Phase; the bundled suite does).
func PhaseReport(res *Result) string {
	return report.PhaseTable(res.Phases).String()
}

// Micros converts microseconds to simulated Time.
func Micros(us float64) Time { return sim.Micros(us) }

// ParseKind converts a machine name ("ideal", "flow", "logp", "clogp",
// "target") to its Kind.
func ParseKind(s string) (Kind, error) { return machine.ParseKind(s) }

// MaxPFor reports the largest processor count a machine kind supports;
// Spec.Validate rejects specs beyond it.  The coherent machines (Target,
// CLogP) are bounded by the directory's sharing-set representation at
// 1024 nodes; the abstract tiers reach 65536 and the ideal machine a
// million.
func MaxPFor(k Kind) int { return machine.MaxPFor(k) }

// ParseScale converts a scale name ("tiny", "small", "medium") to its
// Scale.
func ParseScale(s string) (Scale, error) { return apps.ParseScale(s) }

// ParseProcs parses a comma-separated processor sweep like "2,4,8,16".
func ParseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("spasm: bad processor count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("spasm: empty processor sweep")
	}
	return out, nil
}

// Coherence protocols for the cached machines.
type Protocol = coherence.Protocol

const (
	// BerkeleyProtocol is the paper's ownership protocol (default).
	BerkeleyProtocol = coherence.Berkeley
	// MSIProtocol is the plain three-state variant used by the
	// protocol-sensitivity study.
	MSIProtocol = coherence.MSI
	// UpdateProtocol is the Firefly-style write-update variant.
	UpdateProtocol = coherence.Update
)

// Extension studies.  The façade keeps the ones library callers use;
// the full set lives in internal/exp and is listed, run and rendered by
// "spasm study" (internal/report.Studies).
type (
	// ProtocolRow compares Berkeley and MSI execution for one app.
	ProtocolRow = exp.ProtocolRow
	// AccuracyRow is one figure's row of the abstraction-error matrix.
	AccuracyRow = exp.AccuracyRow
	// AccuracySummary aggregates abstraction error by metric.
	AccuracySummary = exp.AccuracySummary
)

// ProtocolComparison runs the suite under each coherence protocol
// (section 7's protocol-insensitivity claim) on the session.
func ProtocolComparison(s *Session, topo string, p int) ([]ProtocolRow, error) {
	return s.ProtocolComparison(topo, p)
}

// Accuracy summarizes each figure's abstraction error (the geometric
// mean abstraction/target ratio and trend agreement).
func Accuracy(frs []*FigureResult) []AccuracyRow { return exp.Accuracy(frs) }

// Summarize aggregates accuracy rows by figure metric — the
// reproduction's one-screen dashboard.
func Summarize(rows []AccuracyRow) []AccuracySummary { return exp.Summarize(rows) }

// Time-resolved telemetry (see internal/probe): a profile samples, per
// simulated-time epoch, the per-processor overhead-bucket deltas, the
// per-link occupancy of the detailed fabric, and message-delay
// histograms.
type (
	// Profile is a run's time-resolved telemetry.
	Profile = probe.Profile
	// ProfileEpoch is one sampling interval of a Profile.
	ProfileEpoch = probe.Epoch
	// ProfileConfig parameterizes profiling: the OnEpoch live-streaming
	// hook.  Epoch length and budgets are fixed (probe.DefaultEpoch,
	// DefaultMaxEpochs, DefaultMaxLinks).
	ProfileConfig = probe.Config
	// ProfileEpochEvent is one incremental epoch emission from the
	// ProfileConfig.OnEpoch hook.
	ProfileEpochEvent = probe.EpochEvent
)

// DecodeProfile reads a profile serialized with Profile.Encode.
func DecodeProfile(r io.Reader) (*Profile, error) { return probe.Decode(r) }

// ProfileCSV renders a profile as CSV, one row per epoch.
func ProfileCSV(p *Profile) string { return report.ProfileCSV(p) }

// ProfileTable renders a profile as a fixed-width table.
func ProfileTable(p *Profile) string { return report.ProfileTable(p).String() }

// Trace recording and replay (execution-driven vs trace-driven
// methodology).
type Trace = trace.Trace

// RecordTrace runs the named application with a reference-trace recorder
// attached and returns the trace alongside the run result.
func RecordTrace(appName string, scale Scale, seed int64, cfg Config) (*Trace, *Result, error) {
	prog, err := apps.New(appName, scale, seed)
	if err != nil {
		return nil, nil, err
	}
	var rec *trace.Recorder
	res, err := app.Execute(prog, cfg, app.Options{Wrap: func(m machine.Machine) machine.Machine {
		rec = trace.NewRecorder(m)
		return rec
	}})
	if err != nil {
		return nil, nil, err
	}
	return rec.Trace(res.Space), res, nil
}

// ReplayTrace replays a recorded trace on the configured machine
// (trace-driven simulation).
func ReplayTrace(t *Trace, cfg Config) (*Result, error) {
	return app.Run(trace.Replay(t), cfg)
}

// DecodeTrace reads a trace serialized with Trace.Encode.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }
