package report

import (
	"slices"

	"spasm/internal/app"
	"spasm/internal/exp"
	"spasm/internal/stats"
)

// RunDoc is the JSON form of one run's statistics, used by the spasmd
// API and its result cache.  It is fully deterministic: everything in it
// is a function of the run's Spec, so re-encoding an identical run
// yields byte-identical JSON.  Host-side measurements (wall-clock time)
// are deliberately excluded — they vary run to run and would break both
// byte-identity and cache semantics.
type RunDoc struct {
	Program  string  `json:"program"`
	Machine  string  `json:"machine"`
	Topology string  `json:"topology"`
	P        int     `json:"p"`
	TotalUS  float64 `json:"total_us"`

	ComputeUS    float64 `json:"compute_us"`
	MemoryUS     float64 `json:"memory_us"`
	LatencyUS    float64 `json:"latency_us"`
	ContentionUS float64 `json:"contention_us"`
	SyncUS       float64 `json:"sync_us"`

	Reads     uint64 `json:"reads"`
	Writes    uint64 `json:"writes"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Messages  uint64 `json:"messages"`
	NetBytes  uint64 `json:"net_bytes"`
	SimEvents uint64 `json:"sim_events"`
	// NetModelEvents is the network model's own unit of work: per-hop
	// reservations (detailed), port gatings (LogP tiers), allocation
	// recomputations (flow).
	NetModelEvents uint64 `json:"net_model_events"`

	// Host carries the run's host-side (non-deterministic) measurements.
	// RunJSON never sets it — the spasmd result cache and the determinism
	// goldens stay byte-identical — callers that want it (cmd/spasm
	// -json) attach it with AttachHost after conversion.
	Host *HostDoc `json:"host,omitempty"`

	Procs []ProcDoc `json:"procs"`
}

// HostDoc is the host-side measurement block of a RunDoc: wall-clock
// cost and simulation rate, the parallel-execution outcome when the run
// requested one, and the work behind them.  The rates are simulated
// references (reads + writes) and messages per host second — the
// benchmark's refs_per_s and msgs_per_s, units that mean the same on
// every tier (engine events do not: the flow tier dispatches P per run).
// Everything here but Work varies run to run, and Work with the way the
// run was driven; the block is excluded from cached and golden documents
// by construction (see RunDoc.Host).
type HostDoc struct {
	WallMS     float64 `json:"wall_ms"`
	RefsPerSec float64 `json:"refs_per_sec"`
	MsgsPerSec float64 `json:"msgs_per_sec"`
	// Workers is the requested parallel worker count (0 when the run
	// never asked for parallel execution).
	Workers int `json:"workers,omitempty"`
	// Parallel reports whether the windowed parallel kernel actually ran.
	Parallel bool `json:"parallel,omitempty"`
	// Fallback is the reason a requested parallel run used the
	// sequential kernel instead (empty when Parallel or never requested).
	Fallback string `json:"fallback,omitempty"`
	// Work is the one deterministic part of the block.
	Work WorkDoc `json:"work"`
}

// WorkDoc is the simulator's work behind a run, in units no host
// changes (stats.Work): a change that claims a speed-up states first
// which of these it moved.  It depends on how the run was driven and
// observed, so it stays out of the cached document with the rest of the
// host block.
type WorkDoc struct {
	// Events and Switches are the engine's: events dispatched, and
	// coroutine switches (two per resume; none in a stackless run).
	Events   uint64 `json:"events"`
	Switches uint64 `json:"switches"`
	// The ladder queue's, zero on a run that stayed on the binary heap:
	// event copies after a push landed, and events sorted.
	QueueMoves  uint64 `json:"queue_moves"`
	QueueSorted uint64 `json:"queue_sorted"`
	// The profiler's, all zero on an unprofiled run: link samples
	// charged, epochs closed and resolution halvings.
	ProbeLinkSamples uint64 `json:"probe_link_samples"`
	ProbeEpochs      uint64 `json:"probe_epochs"`
	ProbeRescales    uint64 `json:"probe_rescales"`
}

// AttachHost fills doc.Host from the result's host-side measurements.
func AttachHost(doc *RunDoc, res *app.Result) {
	w := &res.Stats.Work
	h := &HostDoc{WallMS: float64(res.Stats.Wall.Microseconds()) / 1e3, Work: WorkDoc{
		Events: res.Stats.SimEvents, Switches: w.Switches,
		QueueMoves: w.QueueMoves, QueueSorted: w.QueueSorted,
		ProbeLinkSamples: w.LinkSamples, ProbeEpochs: w.Epochs, ProbeRescales: w.Rescales,
	}}
	if wall := res.Stats.Wall.Seconds(); wall > 0 {
		h.RefsPerSec = float64(doc.Reads+doc.Writes) / wall
		h.MsgsPerSec = float64(doc.Messages) / wall
	}
	if par := res.Par; par != nil {
		h.Workers = par.Requested
		h.Parallel = par.Parallel
		h.Fallback = par.Fallback
	}
	doc.Host = h
}

// ProcDoc is one processor's summary within a RunDoc.
type ProcDoc struct {
	ID       int     `json:"id"`
	FinishUS float64 `json:"finish_us"`
	BusyUS   float64 `json:"busy_us"`
}

// RunJSON converts a run result to its deterministic JSON document form.
func RunJSON(res *app.Result) RunDoc {
	r := res.Stats
	topo := res.Config.Topology
	if topo == "" {
		topo = "full"
	}
	doc := RunDoc{
		Program:        res.Program,
		Machine:        res.Config.Kind.String(),
		Topology:       topo,
		P:              r.P(),
		TotalUS:        r.Total.Micros(),
		ComputeUS:      r.Sum(stats.Compute).Micros(),
		MemoryUS:       r.Sum(stats.Memory).Micros(),
		LatencyUS:      r.Sum(stats.Latency).Micros(),
		ContentionUS:   r.Sum(stats.Contention).Micros(),
		SyncUS:         r.Sum(stats.Sync).Micros(),
		Reads:          r.Count(func(p *stats.Proc) uint64 { return p.Reads }),
		Writes:         r.Count(func(p *stats.Proc) uint64 { return p.Writes }),
		Hits:           r.Count(func(p *stats.Proc) uint64 { return p.Hits }),
		Misses:         r.Count(func(p *stats.Proc) uint64 { return p.Misses }),
		Messages:       r.Messages(),
		NetBytes:       r.Count(func(p *stats.Proc) uint64 { return p.NetBytes }),
		SimEvents:      r.SimEvents,
		NetModelEvents: r.NetEvents,
	}
	doc.Procs = slices.Grow(doc.Procs, len(r.Procs)) // sized once; nil for no processors
	for i := range r.Procs {
		p := &r.Procs[i]
		doc.Procs = append(doc.Procs, ProcDoc{
			ID:       p.ID,
			FinishUS: p.Finish.Micros(),
			BusyUS:   p.Busy().Micros(),
		})
	}
	return doc
}

// FigureDoc is the JSON form of a regenerated figure (paper figure or
// ad-hoc sweep) for the spasmd API.
type FigureDoc struct {
	Num      int         `json:"figure"`
	App      string      `json:"app"`
	Topology string      `json:"topology"`
	Metric   string      `json:"metric"`
	Caption  string      `json:"caption"`
	Series   []SeriesDoc `json:"series"`
}

// SeriesDoc is one machine's curve within a FigureDoc.
type SeriesDoc struct {
	Machine string     `json:"machine"`
	Points  []PointDoc `json:"points"`
}

// PointDoc is one sweep sample within a SeriesDoc.
type PointDoc struct {
	P       int     `json:"p"`
	ValueUS float64 `json:"value_us"`
}

// FigureJSON converts a figure result to its JSON document form.
func FigureJSON(fr *exp.FigureResult) FigureDoc {
	doc := FigureDoc{
		Num:      fr.Figure.Num,
		App:      fr.Figure.App,
		Topology: fr.Figure.Topology,
		Metric:   fr.Figure.Metric.String(),
		Caption:  fr.Figure.Caption(),
	}
	for _, s := range fr.Series {
		sd := SeriesDoc{Machine: s.Machine.String()}
		for _, pt := range s.Points {
			sd.Points = append(sd.Points, PointDoc{P: pt.P, ValueUS: pt.Value})
		}
		doc.Series = append(doc.Series, sd)
	}
	return doc
}
