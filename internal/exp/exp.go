// Package exp defines the paper's experiments — one entry per figure of
// the evaluation section, the textual experiments of sections 5 and 7,
// and the extension studies — and runs the sweeps that regenerate them.
//
// Every experiment simulates through one Session, which caches runs by
// (application, canonical machine configuration): one simulation feeds
// several figures and studies (e.g. IS on the full network appears in the
// latency, contention and execution-time figures).
package exp

import (
	"fmt"
	"strings"
	"sync"

	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/runpool"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Metric selects what a figure plots.
type Metric int

const (
	// ExecTime is the simulated execution time (max processor finish).
	ExecTime Metric = iota
	// LatencyOvh is the summed contention-free message-transmission
	// overhead — the quantity the LogP L parameter abstracts.
	LatencyOvh
	// ContentionOvh is the summed waiting overhead — links on the
	// target, the g-gap on the LogP machines.
	ContentionOvh
	// MessageCount is the number of network messages: a column of the
	// error matrix, not of a paper figure.
	MessageCount
)

func (m Metric) String() string {
	switch m {
	case ExecTime:
		return "execution time"
	case LatencyOvh:
		return "latency"
	case ContentionOvh:
		return "contention"
	case MessageCount:
		return "messages"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// Figure describes one paper figure: an application, a topology and a
// metric, plotted for the three machines across the processor sweep.
type Figure struct {
	Num      int
	App      string
	Topology string
	Metric   Metric
}

// ID returns the figure's stable identifier, e.g. "fig07" ("custom"
// for ad-hoc figures built with Session.CustomFigure).
func (f Figure) ID() string {
	if f.Num == 0 {
		return "custom"
	}
	return fmt.Sprintf("fig%02d", f.Num)
}

// Caption reproduces the paper's caption, e.g. "IS on Mesh: Contention".
func (f Figure) Caption() string {
	topo := map[string]string{
		"full": "Full", "cube": "Cube", "mesh": "Mesh",
		"ring": "Ring", "torus": "Torus",
	}[f.Topology]
	if topo == "" {
		topo = f.Topology
	}
	metric := map[Metric]string{
		ExecTime: "Execution Time", LatencyOvh: "Latency", ContentionOvh: "Contention",
	}[f.Metric]
	appName := map[string]string{
		"ep": "EP", "is": "IS", "fft": "FFT", "cg": "CG", "cholesky": "CHOLESKY",
	}[f.App]
	if appName == "" {
		appName = strings.ToUpper(f.App)
	}
	return fmt.Sprintf("%s on %s: %s", appName, topo, metric)
}

// Figures lists the paper's twenty evaluation figures in order.
var Figures = []Figure{
	{1, "fft", "full", LatencyOvh},
	{2, "cg", "full", LatencyOvh},
	{3, "ep", "full", LatencyOvh},
	{4, "is", "full", LatencyOvh},
	{5, "cholesky", "full", LatencyOvh},
	{6, "is", "full", ContentionOvh},
	{7, "is", "mesh", ContentionOvh},
	{8, "fft", "cube", ContentionOvh},
	{9, "cholesky", "full", ContentionOvh},
	{10, "ep", "full", ContentionOvh},
	{11, "ep", "mesh", ContentionOvh},
	{12, "ep", "full", ExecTime},
	{13, "fft", "mesh", ExecTime},
	{14, "is", "full", ExecTime},
	{15, "cg", "full", ExecTime},
	{16, "cholesky", "full", ExecTime},
	{17, "cg", "mesh", ExecTime},
	{18, "cholesky", "mesh", ExecTime},
	{19, "cg", "mesh", ContentionOvh},
	{20, "cholesky", "mesh", ContentionOvh},
}

// Points lists the sweep points the figure plots under the options,
// machine by machine.
func (f Figure) Points(opt Options) []BatchPoint {
	var out []BatchPoint
	for _, kind := range opt.Machines {
		for _, p := range opt.procsFor(f.App) {
			out = append(out, point(f.App, f.Topology, kind, p))
		}
	}
	return out
}

// ByNumber returns figure n (1-20).
func ByNumber(n int) (Figure, error) {
	for _, f := range Figures {
		if f.Num == n {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("exp: no figure %d", n)
}

// Options configures a Session.
type Options struct {
	// Scale selects problem sizes (default apps.Small).
	Scale apps.Scale
	// Procs is the processor sweep (default 2..64 in powers of two,
	// capped so every app fits, e.g. FFT needs R >= P).
	Procs []int
	// Seed varies the synthetic inputs (default 1).
	Seed int64
	// Machines are the characterizations compared (default LogP,
	// CLogP, Target — the paper's three).
	Machines []machine.Kind
	// Parallel is the number of simulations RunBatch runs concurrently
	// on the host (each simulation is single-threaded and independent,
	// so this is pure speedup; results are identical).  Default 1.
	Parallel int
	// Runner, if non-nil, executes the session's underlying
	// simulations in place of the session building and running the
	// program itself.  It must return statistics equivalent to a
	// direct run of the point at the session's scale and seed.  The
	// service layer injects its content-addressed result cache and
	// bounded worker pool here, so figure and sweep requests share one
	// execution path with single-run requests.
	Runner func(BatchPoint) (*stats.Run, error)
}

// WithDefaults returns the options with unset fields filled in — the
// form a Session actually runs with.  Exported so callers that expand
// work themselves (the service layer pre-submitting sweep points to its
// pool) see the same sweep and machine lists the session will use.
func (o Options) WithDefaults() Options {
	if o.Procs == nil {
		o.Procs = []int{2, 4, 8, 16, 32, 64}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Machines == nil {
		o.Machines = []machine.Kind{machine.LogP, machine.CLogP, machine.Target}
	}
	return o
}

// procsFor is the processor sweep without the counts appName cannot run
// on at the options' scale (apps.MaxP): a figure or an error-matrix row
// plots only points that exist.
func (o Options) procsFor(appName string) []int {
	var out []int
	for _, p := range o.Procs {
		if max := apps.MaxP(appName, o.Scale); max == 0 || p <= max {
			out = append(out, p)
		}
	}
	return out
}

// Point is one sweep sample.
type Point struct {
	P     int
	Value float64 // the figure's metric, in microseconds
	Run   *stats.Run
}

// Series is one machine's curve across the processor sweep.
type Series struct {
	Machine machine.Kind
	Points  []Point
}

// FigureResult is a regenerated figure.
type FigureResult struct {
	Figure Figure
	Series []Series
}

// Value extracts a metric from a run: microseconds, or a count.
func Value(m Metric, r *stats.Run) float64 {
	switch m {
	case ExecTime:
		return r.Total.Micros()
	case LatencyOvh:
		return sim.Time(r.Sum(stats.Latency)).Micros()
	case ContentionOvh:
		return sim.Time(r.Sum(stats.Contention)).Micros()
	case MessageCount:
		return float64(r.Messages())
	}
	panic(fmt.Sprintf("exp: bad metric %d", m))
}

// Session runs experiments with run caching.  With Options.Parallel > 1
// the cache is safe for the session's own worker pool.
type Session struct {
	opt   Options
	mu    sync.Mutex
	cache map[BatchPoint]*stats.Run

	// pool holds reusable run contexts for the session's lifetime, so a
	// figure sweep pays machine construction once per configuration
	// rather than once per run.  It is safe for the session's worker
	// pool; its idle cap bounds retained memory.
	pool *runpool.Pool
}

// NewSession returns a Session with the given options.
func NewSession(opt Options) *Session {
	return &Session{
		opt:   opt.WithDefaults(),
		cache: map[BatchPoint]*stats.Run{},
		pool:  runpool.New(0),
	}
}

// Options returns the session's (defaulted) options.
func (s *Session) Options() Options { return s.opt }

func (s *Session) lookup(key BatchPoint) (*stats.Run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cache[key]
	return r, ok
}

func (s *Session) store(key BatchPoint, r *stats.Run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache[key] = r
}

// Run simulates one point, returning a cached result if a point with the
// same canonical configuration already ran.
func (s *Session) Run(pt BatchPoint) (*stats.Run, error) {
	key := pt.key()
	if r, ok := s.lookup(key); ok {
		return r, nil
	}
	r, err := s.simulate(pt)
	if err != nil {
		return nil, err
	}
	s.store(key, r)
	return r, nil
}

// Figure regenerates one paper figure.
func (s *Session) Figure(fig Figure) (*FigureResult, error) {
	out := &FigureResult{Figure: fig}
	for _, kind := range s.opt.Machines {
		series := Series{Machine: kind}
		for _, p := range s.opt.procsFor(fig.App) {
			r, err := s.Run(point(fig.App, fig.Topology, kind, p))
			if err != nil {
				return nil, fmt.Errorf("%s (p=%d, %v): %w", fig.ID(), p, kind, err)
			}
			series.Points = append(series.Points, Point{P: p, Value: Value(fig.Metric, r), Run: r})
		}
		out.Series = append(out.Series, series)
	}
	return out, nil
}

// CustomFigure sweeps an arbitrary (application, topology, metric)
// combination — including the extension topologies — and returns it in
// figure form so the standard table/chart/CSV renderers apply.  The
// figure number is 0, marking it as ad hoc.
func (s *Session) CustomFigure(appName, topo string, metric Metric) (*FigureResult, error) {
	return s.Figure(Figure{Num: 0, App: appName, Topology: topo, Metric: metric})
}

// ParseMetric converts "latency", "contention" or "exec" to a Metric.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "latency":
		return LatencyOvh, nil
	case "contention":
		return ContentionOvh, nil
	case "exec", "execution":
		return ExecTime, nil
	}
	return 0, fmt.Errorf("exp: unknown metric %q (latency, contention, exec)", name)
}

// AllFigures regenerates every paper figure, running the underlying
// points on the batch scheduler first (concurrently when
// Options.Parallel > 1).
func (s *Session) AllFigures() ([]*FigureResult, error) {
	var pts []BatchPoint
	for _, fig := range Figures {
		pts = append(pts, fig.Points(s.opt)...)
	}
	if _, err := s.RunBatch(pts); err != nil {
		return nil, err
	}
	var out []*FigureResult
	for _, fig := range Figures {
		fr, err := s.Figure(fig)
		if err != nil {
			return nil, err
		}
		out = append(out, fr)
	}
	return out, nil
}
