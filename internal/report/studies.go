package report

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"spasm/internal/app"
	"spasm/internal/exp"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/stats"
)

// Cell formats beyond Table.Add's one-decimal default; a ratio that is
// not a number (no positive pair) prints as n/a.
func fixed(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }
func times(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", v)
}

// CostTable renders the simulation-cost comparison (S1) of the whole
// suite on one network at p processors.  The wall column is host time;
// the note gives the host-independent event ratios.
func CostTable(topo string, p int, rows []exp.CostRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("simulation cost — full suite on the %s network at p=%d (section 7):", topo, p),
		Headers: []string{"machine", "events", "wall"},
	}
	events := map[machine.Kind]float64{}
	for _, r := range rows {
		t.Add(r.Machine, r.Events, r.Wall.Round(time.Millisecond))
		events[r.Machine] = float64(r.Events)
	}
	if target := events[machine.Target]; target > 0 {
		t.Note = fmt.Sprintf("event ratio: clogp/target = %.2f, logp/target = %.2f",
			events[machine.CLogP]/target, events[machine.LogP]/target)
	}
	return t
}

// GapParamTable renders the g-parameter table (S3): the paper's three
// networks, and under them the same derivation for ring and torus.
func GapParamTable(rows []exp.GapRow) *Table {
	t := &Table{
		Title:   "g parameters from per-processor bisection bandwidth (section 5):",
		Headers: []string{"topo", "p", "g_us"},
	}
	ext := &Table{Title: "the same derivation for the extension topologies:", Headers: t.Headers}
	for _, r := range rows {
		in := t
		if r.Topology == "ring" || r.Topology == "torus" {
			in = ext
		}
		in.Add(r.Topology, r.P, fixed(r.G.Micros(), 3))
	}
	if len(ext.Rows) > 0 {
		t.Note = "\n" + strings.TrimSuffix(ext.String(), "\n")
	}
	return t
}

// AccuracyTable renders the per-figure half of the abstraction-accuracy
// dashboard.
func AccuracyTable(rows []exp.AccuracyRow) *Table {
	t := &Table{
		Title:   "abstraction accuracy per figure (geometric-mean ratio vs target; 1.00 = exact):",
		Headers: []string{"fig", "caption", "clogp", "trend", "logp", "trend"},
	}
	for _, r := range rows {
		t.Add(r.Figure.ID(), r.Figure.Caption(),
			times(r.CLogPRatio), r.CLogPTrend, times(r.LogPRatio), r.LogPTrend)
	}
	return t
}

// AccuracySummaryTable renders the per-metric half of the dashboard;
// unit names what it counts (figures or matrix rows), and rows left out
// as n/a are counted beside it.
func AccuracySummaryTable(unit string, sums []exp.AccuracySummary) *Table {
	t := &Table{
		Title:   "summary by metric:",
		Headers: []string{"metric", unit, "clogp", "trend%", "logp", "trend%"},
	}
	for _, s := range sums {
		n := fmt.Sprint(s.N)
		if s.Skipped > 0 {
			n += fmt.Sprintf(" (+%d n/a)", s.Skipped)
		}
		t.Add(s.Metric, n, times(s.CLogPRatio), fixed(s.CLogPTrendPct, 0)+"%",
			times(s.LogPRatio), fixed(s.LogPTrendPct, 0)+"%")
	}
	return t
}

// ErrorTable renders the abstraction-error matrix, one row per
// (application, network, metric, variant): the clogp/logp ratios over the
// target at each of procs ("-" where the application cannot run), each
// abstraction's geometric mean and trend agreement, and the per-metric
// summary of the paper's rows under it.  The variant column appears when
// a row has one.
func ErrorTable(procs []int, rows []exp.AccuracyRow) *Table {
	t := &Table{
		Title:   "abstraction error matrix (clogp/logp over target at each p; geometric mean over p; 1.00 = exact):",
		Headers: []string{"app", "topo", "metric"},
	}
	variants := slices.ContainsFunc(rows, func(r exp.AccuracyRow) bool { return r.Variant != "" })
	if variants {
		t.Headers = append(t.Headers, "variant")
	}
	for _, p := range procs {
		t.Headers = append(t.Headers, fmt.Sprintf("p%d", p))
	}
	t.Headers = append(t.Headers, "clogp", "trend", "logp", "trend")
	for _, r := range rows {
		cells := []interface{}{r.Figure.App, r.Figure.Topology, r.Figure.Metric}
		if variants {
			cells = append(cells, cmp.Or(r.Variant, "paper"))
		}
		for _, p := range procs {
			c := "-"
			if k := slices.Index(r.P, p); k >= 0 {
				c = times(r.CLogP[k]) + "/" + times(r.LogP[k])
			}
			cells = append(cells, c)
		}
		t.Add(append(cells, times(r.CLogPRatio), r.CLogPTrend, times(r.LogPRatio), r.LogPTrend)...)
	}
	t.Note = "\n" + strings.TrimSuffix(AccuracySummaryTable("rows", exp.Summarize(rows)).String(), "\n")
	return t
}

// SpeedupTable renders a target-machine scalability curve.
func SpeedupTable(app, topo string, rows []exp.SpeedupRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("scalability — %s on target/%s (ideal-machine baseline):", app, topo),
		Headers: []string{"p", "exec_us", "ideal_us", "speedup", "algo_speedup", "efficiency"},
	}
	for _, r := range rows {
		t.Add(r.P, r.Exec, r.IdealExec, times(r.Speedup), times(r.AlgorithmicSpeedup),
			fixed(100*r.Efficiency, 0)+"%")
	}
	return t
}

// PhaseTable renders a run's per-phase overhead separation — SPASM's
// answer to "which part of the program causes the contention".
func PhaseTable(pp *app.PhaseProfile) *Table {
	t := &Table{
		Title: "Per-phase overhead separation (sums across processors, us)",
		Headers: []string{"phase", "visits", "wall_us", "compute", "memory",
			"latency", "contention", "sync"},
	}
	for _, ps := range pp.Phases() {
		t.Add(ps.Name, ps.Visits,
			ps.Wall.Micros(),
			ps.Time[stats.Compute].Micros(),
			ps.Time[stats.Memory].Micros(),
			ps.Time[stats.Latency].Micros(),
			ps.Time[stats.Contention].Micros(),
			ps.Time[stats.Sync].Micros())
	}
	return t
}

// ProcTable renders a run's per-processor overhead breakdown.
func ProcTable(r *stats.Run) *Table {
	t := &Table{Headers: []string{"proc", "finish_us", "compute", "memory", "latency", "contention", "sync"}}
	for i := range r.Procs {
		pr := &r.Procs[i]
		t.Add(pr.ID, pr.Finish.Micros(),
			pr.Time[stats.Compute].Micros(), pr.Time[stats.Memory].Micros(),
			pr.Time[stats.Latency].Micros(), pr.Time[stats.Contention].Micros(),
			pr.Time[stats.Sync].Micros())
	}
	return t
}

// BatchTable renders a batch sweep, one row per point in input order.
func BatchTable(workers int, pts []exp.BatchPoint, runs []*stats.Run) *Table {
	t := &Table{
		Title:   fmt.Sprintf("batch sweep — %d points, %d workers:", len(pts), workers),
		Headers: []string{"app", "topo", "machine", "p", "exec_us", "messages", "events"},
	}
	for i, r := range runs {
		pt := pts[i]
		t.Add(pt.App, pt.Topology, pt.Kind, pt.P, r.Total.Micros(), r.Messages(), r.SimEvents)
	}
	return t
}

// ProtocolTable renders the coherence-protocol comparison.
func ProtocolTable(topo string, p int, rows []exp.ProtocolRow) *Table {
	t := &Table{
		Title:   fmt.Sprintf("protocol sensitivity — target execution time, %s network, p=%d:", topo, p),
		Headers: []string{"app", "berkeley_us", "msi_us", "update_us", "clogp_us", "msi/bk", "upd/bk"},
	}
	for _, r := range rows {
		t.Add(r.App, r.Berkeley, r.MSI, r.Update, r.CLogP,
			times(r.MSI/r.Berkeley), times(r.Update/r.Berkeley))
	}
	return t
}

// StudyArgs are the knobs a study reads beside its session: single-point
// studies run at P, sweep studies and error-matrix selections over the
// session's Procs.  An empty App or Topo selects the study's default.
type StudyArgs struct {
	App, Topo string
	P         int
}

// selection is sel with -app and -topo, where given, as the applications
// and topologies it leaves open; those it names are the study's own.
func (a StudyArgs) selection(sel exp.Selection) exp.Selection {
	if a.App != "" && sel.Apps == nil {
		sel.Apps = []string{a.App}
	}
	if a.Topo != "" && sel.Topologies == nil {
		sel.Topologies = []string{a.Topo}
	}
	return sel
}

// Study is one experiment reported in text rather than as a figure: an
// extension study (a sensitivity or validation experiment grounded in a
// claim or proposal of the paper) or one of the paper's own textual
// experiments, rendered as one table.
type Study struct {
	Name string
	// Claim is the paper claim or proposal the study tests.
	Claim string
	// App and Topo are the defaults for StudyArgs.App and StudyArgs.Topo;
	// empty where the study fixes or sweeps that dimension itself.
	App, Topo string

	// table renders the study; a study without one is the selection
	// rows of the error matrix, rendered by ErrorTable.
	table func(*exp.Session, StudyArgs) (*Table, error)
	rows  exp.Selection
}

// Run executes the study on the session and renders its table.  Studies
// run on one session share its cache, so a point is simulated once
// however many of them ask for it.
func (s Study) Run(sess *exp.Session, a StudyArgs) (*Table, error) {
	if a.App == "" {
		a.App = s.App
	}
	if a.Topo == "" {
		a.Topo = s.Topo
	}
	if s.table != nil {
		return s.table(sess, a)
	}
	sel := a.selection(s.rows)
	rows, err := sess.ErrorMatrix(sel)
	t := ErrorTable(sess.Options().Procs, rows)
	t.Title = fmt.Sprintf("%s — %s on %s, clogp/logp over target at each p:",
		s.Claim, strings.Join(sel.Apps, ","), strings.Join(sel.Topologies, ","))
	return t, err
}

// Studies lists the studies in presentation order: the extension studies,
// then the paper's textual experiments.  The typed exp.Session methods do
// the simulation; each entry only names the study, fixes its parameter
// grid, and lays the rows out — or, for a study that asks how far the
// abstractions sit from the target, selects error-matrix rows.
func Studies() []Study {
	return []Study{
		{Name: "protocol", Claim: "Berkeley vs MSI vs write-update (section 7 insensitivity claim)", Topo: "full",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.ProtocolComparison(a.Topo, a.P)
				return ProtocolTable(a.Topo, a.P, rows), err
			}},
		{Name: "cache", Claim: "cache size vs miss rate (64 KB working-set claim)", App: "cg", Topo: "full",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.CacheSweep(a.App, a.Topo, a.P, []int{1, 2, 4, 8, 16, 32, 64, 128})
				t := &Table{
					Title:   fmt.Sprintf("cache-size sweep — %s on target/%s, p=%d:", a.App, a.Topo, a.P),
					Headers: []string{"size_kb", "miss_rate", "exec_us"},
				}
				for _, r := range rows {
					t.Add(r.SizeKB, fixed(r.MissRate, 4), r.Exec)
				}
				return t, err
			}},
		{Name: "adaptive", Claim: "history-based g (section 7 future work)", App: "ep", Topo: "mesh",
			rows: exp.Selection{Metrics: []exp.Metric{exp.ContentionOvh}, Variants: []string{"adaptive g"}}},
		{Name: "trace", Claim: "trace-driven vs execution-driven simulation", Topo: "full",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.TraceDrivenStudy(a.Topo, a.P)
				t := &Table{
					Title:   fmt.Sprintf("trace-driven vs execution-driven — recorded on clogp, replayed on target/%s, p=%d:", a.Topo, a.P),
					Headers: []string{"app", "exec_us", "trace_us", "ratio", "events"},
				}
				for _, r := range rows {
					t.Add(r.App, r.ExecDriven, r.TraceDriven, times(r.TraceDriven/r.ExecDriven), r.Events)
				}
				return t, err
			}},
		{Name: "bandwidth", Claim: "per-application communication demand (companion TR)", Topo: "full",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.BandwidthStudy(a.Topo, a.P)
				t := &Table{
					Title:   fmt.Sprintf("bandwidth demand per processor — %s network, p=%d (links are 20 MB/s):", a.Topo, a.P),
					Headers: []string{"app", "true_mbps", "target_mbps"},
				}
				for _, r := range rows {
					t.Add(r.App, fixed(r.PerProcMBps, 2), fixed(r.TargetMBps, 2))
				}
				return t, err
			}},
		{Name: "tech", Claim: "link-bandwidth scaling vs abstraction accuracy", App: "is", Topo: "mesh",
			rows: exp.Selection{Metrics: []exp.Metric{exp.ExecTime},
				Variants: []string{"links 40 MB/s", "links 80 MB/s", "links 160 MB/s", "links 320 MB/s"}}},
		{Name: "fault", Claim: "degraded-link injection (abstraction blindness)", App: "fft",
			rows: exp.Selection{Topologies: []string{"mesh"}, Metrics: []exp.Metric{exp.ExecTime},
				Variants: []string{"one link 2x slower", "one link 4x slower", "one link 8x slower"}}},
		{Name: "topo", Claim: "abstraction accuracy across all five topologies", App: "is",
			rows: exp.Selection{Topologies: network.Names(), Metrics: []exp.Metric{exp.ExecTime}}},
		{Name: "placement", Claim: "blocked vs interleaved data placement", Topo: "cube",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.PlacementStudy(a.Topo, a.P)
				t := &Table{
					Title:   fmt.Sprintf("data placement — cg on target/%s, p=%d:", a.Topo, a.P),
					Headers: []string{"placement", "exec_us", "latency_us", "misses"},
				}
				for _, r := range rows {
					t.Add(r.Placement, r.TargetExec, r.Latency, r.Misses)
				}
				return t, err
			}},
		{Name: "mg", Claim: "out-of-suite validation (multigrid workload)", Topo: "cube",
			rows: exp.Selection{Apps: []string{"mg"}, Metrics: []exp.Metric{exp.ExecTime, exp.LatencyOvh}}},
		{Name: "leff", Claim: "effective L from measured message sizes (section 6.1)", App: "fft", Topo: "full",
			rows: exp.Selection{Metrics: []exp.Metric{exp.LatencyOvh}, Variants: []string{"measured L"}}},
		{Name: "speedup", Claim: "overhead-separated scalability: algorithmic vs architectural loss", App: "cg", Topo: "mesh",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.Speedup(a.App, a.Topo, machine.Target, s.Options().Procs)
				return SpeedupTable(a.App, a.Topo, rows), err
			}},
		{Name: "error", Claim: "abstraction error: five apps x {full, cube, mesh} x exec, latency, contention, messages",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.ErrorMatrix(a.selection(exp.Selection{}))
				return ErrorTable(s.Options().Procs, rows), err
			}},
		{Name: "speed", Claim: "simulation cost per machine: events and host time (section 7)", Topo: "full",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				rows, err := s.SimulationCost(a.Topo, a.P)
				return CostTable(a.Topo, a.P, rows), err
			}},
		{Name: "ablation", Claim: "g between identical events only: FFT on cube (section 7)",
			rows: exp.Selection{Apps: []string{"fft"}, Topologies: []string{"cube"},
				Metrics: []exp.Metric{exp.ContentionOvh}, Variants: []string{"per-class g"}}},
		{Name: "gtable", Claim: "g from per-processor bisection bandwidth (section 5)",
			table: func(s *exp.Session, a StudyArgs) (*Table, error) {
				return GapParamTable(exp.GapTable(s.Options().Procs)), nil
			}},
	}
}
