package exp

import (
	"math"

	"spasm/internal/apps"
	"spasm/internal/machine"
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
// trend (shape of the curve)".
type AccuracyRow struct {
	Figure      Figure
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

// ErrorMatrix computes the abstraction-error matrix: every paper
// application on the full, cube and mesh networks (or just appName and
// topo when set), for execution time, latency, contention and messages,
// over the session's sweep: the Accuracy of those figures.  Every run
// goes through the session's cache, so the paper figures' points cost
// nothing again.
func (s *Session) ErrorMatrix(appName, topo string) ([]AccuracyRow, error) {
	names, topos := apps.Names(), []string{"full", "cube", "mesh"}
	if appName != "" {
		names = []string{appName}
	}
	if topo != "" {
		topos = []string{topo}
	}
	var frs []*FigureResult
	for _, name := range names {
		for _, t := range topos {
			for _, m := range []Metric{ExecTime, LatencyOvh, ContentionOvh, MessageCount} {
				fr, err := s.Figure(Figure{App: name, Topology: t, Metric: m})
				if err != nil {
					return nil, err
				}
				frs = append(frs, fr)
			}
		}
	}
	return Accuracy(frs), nil
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
// of abstraction error, of the figures and of the matrix alike.
func Summarize(rows []AccuracyRow) []AccuracySummary {
	var out []AccuracySummary
	for _, m := range []Metric{LatencyOvh, ContentionOvh, ExecTime, MessageCount} {
		s := AccuracySummary{Metric: m}
		var cRatios, lRatios []float64
		var cTrend, lTrend int
		for _, r := range rows {
			switch {
			case r.Figure.Metric != m:
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
