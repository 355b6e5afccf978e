package exp

import (
	"fmt"
	"math"
	"slices"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// AccuracyRow is one row of the error matrix: an (application,
// topology, metric) sweep's abstraction error — how far each abstract
// machine's curve sits from the target machine's.  The cells are each
// abstraction's value over the target's at P[i] (NaN where the target's
// is not positive); the Ratio fields are their geometric mean over the
// sweep.  A value of 1.0 is perfect; above 1 the abstraction is
// pessimistic, below 1 optimistic; NaN when no sweep point has both
// values positive.  TrendAgrees reports whether the abstraction's curve
// moves in the same direction as the target's between every pair of
// consecutive sweep points — the paper's notion of "displaying a similar
// trend (shape of the curve)".  Variant names the run change the row's
// sweep ran under; it is empty on the paper's rows.
type AccuracyRow struct {
	Figure      Figure
	Variant     string
	CLogPRatio  float64
	LogPRatio   float64
	CLogPTrend  bool
	LogPTrend   bool
	P           []int
	CLogP, LogP []float64
}

// errorRow is the matrix's row function, applied alike to a figure and
// to a matrix sweep.  ok is false when the sweep has no target series.
func errorRow(fr *FigureResult) (row AccuracyRow, ok bool) {
	target := seriesOf(fr, machine.Target)
	if target == nil {
		return row, false
	}
	row.Figure = fr.Figure
	cs, ls := seriesOf(fr, machine.CLogP), seriesOf(fr, machine.LogP)
	row.CLogP, row.LogP = ratios(cs, target), ratios(ls, target)
	if cs != nil {
		row.CLogPRatio, row.CLogPTrend = geoMeanRatio(row.CLogP), trendAgrees(cs, target)
	}
	if ls != nil {
		row.LogPRatio, row.LogPTrend = geoMeanRatio(row.LogP), trendAgrees(ls, target)
	}
	for _, pt := range target.Points {
		row.P = append(row.P, pt.P)
	}
	return row, true
}

// Accuracy computes the abstraction-error summary for a set of
// regenerated figures: each figure's row of the error matrix.
func Accuracy(frs []*FigureResult) []AccuracyRow {
	var out []AccuracyRow
	for _, fr := range frs {
		if row, ok := errorRow(fr); ok {
			out = append(out, row)
		}
	}
	return out
}

// Selection picks rows of the error matrix.  A nil field selects the
// paper's: its five applications; the full, cube and mesh networks; and
// execution time, latency, contention and messages.  Each named variant
// adds a row beside the paper's for every (application, topology,
// metric).
type Selection struct {
	Apps, Topologies []string
	Metrics          []Metric
	Variants         []string
}

// variant is a named change to the runs of an error-matrix sweep: a
// remedy the paper proposes, or a machine it did not build.  The zero
// variant is the paper's machines.
type variant struct {
	name string
	// portMode, adaptiveG and measuredL change the abstractions (LogP
	// and CLogP) only, so a variant's Target points are the paper's.
	portMode  logp.PortMode
	adaptiveG bool
	measuredL bool    // L from the Target run's mean message size (section 6.1)
	linkMBps  float64 // every machine's links, with L and g derived from them
	slowLink  int     // one Target mesh link this many times slower
}

// variants is the matrix's variant axis: the per-class and
// history-scaled g of section 7, the measured L of section 6.1, faster
// links, and a slow link no L/g model can express.
var variants = []variant{
	{name: "per-class g", portMode: logp.PerClass},
	{name: "adaptive g", adaptiveG: true},
	{name: "measured L", measuredL: true},
	{name: "links 40 MB/s", linkMBps: 40},
	{name: "links 80 MB/s", linkMBps: 80},
	{name: "links 160 MB/s", linkMBps: 160},
	{name: "links 320 MB/s", linkMBps: 320},
	{name: "one link 2x slower", slowLink: 2},
	{name: "one link 4x slower", slowLink: 4},
	{name: "one link 8x slower", slowLink: 8},
}

// ErrorMatrix computes the selected rows of the abstraction-error
// matrix over the session's sweep: for each application and topology,
// the paper's row and each variant's, metric by metric.  Every run but
// the slow link's goes through the session's cache, so the paper
// figures' points cost nothing again and a variant that changes only
// the abstractions runs no Target point.
func (s *Session) ErrorMatrix(sel Selection) ([]AccuracyRow, error) {
	names, topos, metrics := sel.Apps, sel.Topologies, sel.Metrics
	if names == nil {
		names = apps.Names()
	}
	if topos == nil {
		topos = []string{"full", "cube", "mesh"}
	}
	if metrics == nil {
		metrics = []Metric{ExecTime, LatencyOvh, ContentionOvh, MessageCount}
	}
	vs := []variant{{}}
	for _, name := range sel.Variants {
		i := slices.IndexFunc(variants, func(v variant) bool { return v.name == name })
		if i < 0 {
			return nil, fmt.Errorf("exp: no variant %q", name)
		}
		vs = append(vs, variants[i])
	}
	var out []AccuracyRow
	for _, name := range names {
		for _, t := range topos {
			sweeps := make([]*FigureResult, len(vs))
			for i, v := range vs {
				fr, err := s.figure(Figure{App: name, Topology: t}, v)
				if err != nil {
					return nil, err
				}
				sweeps[i] = fr
			}
			for _, m := range metrics {
				for i, fr := range sweeps {
					if row, ok := errorRow(fr.as(m)); ok {
						row.Variant = vs[i].name
						out = append(out, row)
					}
				}
			}
		}
	}
	return out, nil
}

// runUnder simulates pt under the variant.
func (s *Session) runUnder(pt BatchPoint, v variant) (*stats.Run, error) {
	switch {
	case v.slowLink > 1 && pt.Kind == machine.Target:
		return s.slowLink(pt, v.slowLink)
	case v.linkMBps > 0:
		// 1e6/m bytes/s in Time units: 20 MB/s = 33 units.
		pt.LinkByteTime = max(sim.Micros(1/v.linkMBps), 1)
	case pt.Kind != machine.LogP && pt.Kind != machine.CLogP:
	case v.measuredL:
		tgt, err := s.Run(point(pt.App, pt.Topology, machine.Target, pt.P))
		if err != nil {
			return nil, err
		}
		mean := 0.0
		if msgs := tgt.Messages(); msgs > 0 {
			mean = float64(tgt.Count(func(q *stats.Proc) uint64 { return q.NetBytes })) / float64(msgs)
		}
		pt.L = max(sim.Time(mean*float64(sim.SerialByte)), 1)
	default:
		pt.PortMode, pt.AdaptiveG = v.portMode, v.adaptiveG
	}
	return s.Run(pt)
}

// slowLink runs a Target mesh point with one link factor times slower:
// the east link of node (0, cols/2-1), on the row-0 path X-first
// routing funnels traffic through.  A wrapped machine is no point's, so
// the run bypasses the session.
func (s *Session) slowLink(pt BatchPoint, factor int) (*stats.Run, error) {
	topo, err := network.New(pt.Topology, pt.P)
	if err != nil {
		return nil, err
	}
	mesh, ok := topo.(*network.Mesh)
	if !ok {
		return nil, fmt.Errorf("exp: a slow link is placed on the mesh, not %s", pt.Topology)
	}
	victim := (mesh.Cols()/2 - 1) * 4
	prog, err := apps.Lookup(pt.App, s.opt.Scale, s.opt.Seed)
	if err != nil {
		return nil, err
	}
	res, err := app.Execute(prog, pt.Config, app.Options{Wrap: func(m machine.Machine) machine.Machine {
		m.(machine.Networked).Fabric().Degrade(victim, factor)
		return m
	}})
	if err != nil {
		return nil, err
	}
	return res.Stats, nil
}

// as returns the sweep valued by metric m.
func (fr *FigureResult) as(m Metric) *FigureResult {
	out := &FigureResult{Figure: fr.Figure}
	out.Figure.Metric = m
	for _, sr := range fr.Series {
		pts := make([]Point, len(sr.Points))
		for i, pt := range sr.Points {
			pts[i] = Point{P: pt.P, Value: Value(m, pt.Run), Run: pt.Run}
		}
		out.Series = append(out.Series, Series{Machine: sr.Machine, Points: pts})
	}
	return out
}

// AccuracySummary aggregates rows into one verdict per machine and
// metric class.
type AccuracySummary struct {
	Metric Metric
	// Rows counted, and rows left out because a ratio is not a number
	// (no sweep point with both values positive).
	N, Skipped int
	// Geometric mean of the per-row geometric-mean ratios.
	CLogPRatio float64
	LogPRatio  float64
	// Fraction of rows whose trend agrees with the target.
	CLogPTrendPct float64
	LogPTrendPct  float64
}

// Summarize groups accuracy rows by metric: the one per-metric summary
// of abstraction error, of the figures and of the matrix alike.  Variant
// rows ask about a changed machine, so they are left out.
func Summarize(rows []AccuracyRow) []AccuracySummary {
	var out []AccuracySummary
	for _, m := range []Metric{LatencyOvh, ContentionOvh, ExecTime, MessageCount} {
		s := AccuracySummary{Metric: m}
		var cRatios, lRatios []float64
		var cTrend, lTrend int
		for _, r := range rows {
			switch {
			case r.Figure.Metric != m || r.Variant != "":
			case math.IsNaN(r.CLogPRatio) || math.IsNaN(r.LogPRatio):
				s.Skipped++
			default:
				s.N++
				cRatios, lRatios = append(cRatios, r.CLogPRatio), append(lRatios, r.LogPRatio)
				if r.CLogPTrend {
					cTrend++
				}
				if r.LogPTrend {
					lTrend++
				}
			}
		}
		if s.N+s.Skipped == 0 {
			continue
		}
		s.CLogPRatio = geoMeanRatio(cRatios)
		s.LogPRatio = geoMeanRatio(lRatios)
		s.CLogPTrendPct = 100 * float64(cTrend) / float64(s.N)
		s.LogPTrendPct = 100 * float64(lTrend) / float64(s.N)
		out = append(out, s)
	}
	return out
}

func seriesOf(fr *FigureResult, kind machine.Kind) *Series {
	for i := range fr.Series {
		if fr.Series[i].Machine == kind {
			return &fr.Series[i]
		}
	}
	return nil
}

// ratios returns a's value over b's at each sweep point, NaN where b's
// is not positive or a is absent.
func ratios(a, b *Series) []float64 {
	out := make([]float64, len(b.Points))
	for i := range out {
		out[i] = math.NaN()
		if bv := b.Points[i].Value; a != nil && bv > 0 {
			out[i] = a.Points[i].Value / bv
		}
	}
	return out
}

// geoMeanRatio returns exp(mean(log(r_i))) over the positive ratios —
// the sweep points where both values are positive.
func geoMeanRatio(rs []float64) float64 {
	var sum float64
	n := 0
	for _, r := range rs {
		if r > 0 {
			sum += math.Log(r)
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return math.Exp(sum / float64(n))
}

// trendFlatTol is the relative change below which a segment counts as
// flat: flat segments agree with any direction, so a near-level stretch
// of one curve does not spuriously contradict the other.
const trendFlatTol = 0.05

// trendAgrees reports whether both curves move in the same direction
// between every pair of consecutive sweep points, treating sub-5%%
// relative moves as flat.
func trendAgrees(a, b *Series) bool {
	for i := 1; i < len(a.Points); i++ {
		da := relDelta(a.Points[i-1].Value, a.Points[i].Value)
		db := relDelta(b.Points[i-1].Value, b.Points[i].Value)
		if math.Abs(da) < trendFlatTol || math.Abs(db) < trendFlatTol {
			continue
		}
		if da*db < 0 {
			return false
		}
	}
	return true
}

func relDelta(prev, cur float64) float64 {
	if prev == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - prev) / prev
}
