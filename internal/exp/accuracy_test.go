package exp

import (
	"math"
	"sync"
	"testing"

	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/stats"
)

func syntheticResult(num int, target, clogp, logp []float64) *FigureResult {
	fig, _ := ByNumber(num)
	fr := &FigureResult{Figure: fig}
	add := func(kind machine.Kind, vals []float64) {
		s := Series{Machine: kind}
		for i, v := range vals {
			s.Points = append(s.Points, Point{P: 1 << (i + 1), Value: v})
		}
		fr.Series = append(fr.Series, s)
	}
	add(machine.LogP, logp)
	add(machine.CLogP, clogp)
	add(machine.Target, target)
	return fr
}

func TestAccuracyRatios(t *testing.T) {
	fr := syntheticResult(1,
		[]float64{100, 200}, // target
		[]float64{200, 400}, // clogp: exactly 2x
		[]float64{400, 800}, // logp: exactly 4x
	)
	rows := Accuracy([]*FigureResult{fr})
	if len(rows) != 1 {
		t.Fatalf("%d rows", len(rows))
	}
	if math.Abs(rows[0].CLogPRatio-2) > 1e-12 || math.Abs(rows[0].LogPRatio-4) > 1e-12 {
		t.Errorf("ratios = %+v", rows[0])
	}
	if !rows[0].CLogPTrend || !rows[0].LogPTrend {
		t.Error("parallel curves must agree in trend")
	}
}

func TestAccuracyTrendDisagreement(t *testing.T) {
	fr := syntheticResult(10,
		[]float64{100, 200, 300}, // target rising
		[]float64{100, 150, 200}, // clogp rising: agrees
		[]float64{300, 200, 100}, // logp falling: disagrees
	)
	rows := Accuracy([]*FigureResult{fr})
	if !rows[0].CLogPTrend {
		t.Error("rising clogp marked disagreeing")
	}
	if rows[0].LogPTrend {
		t.Error("falling logp marked agreeing")
	}
}

func TestSummarizeGroupsByMetric(t *testing.T) {
	frs := []*FigureResult{
		syntheticResult(1, []float64{100}, []float64{200}, []float64{400}),  // latency
		syntheticResult(2, []float64{100}, []float64{50}, []float64{100}),   // latency
		syntheticResult(6, []float64{100}, []float64{300}, []float64{300}),  // contention
		syntheticResult(12, []float64{100}, []float64{110}, []float64{120}), // exec
	}
	sums := Summarize(Accuracy(frs))
	if len(sums) != 3 {
		t.Fatalf("%d summaries", len(sums))
	}
	for _, s := range sums {
		switch s.Metric {
		case LatencyOvh:
			if s.N != 2 {
				t.Errorf("latency N = %d", s.N)
			}
			// geometric mean of 2 and 0.5 = 1.
			if math.Abs(s.CLogPRatio-1) > 1e-12 {
				t.Errorf("latency clogp ratio = %v", s.CLogPRatio)
			}
		case ContentionOvh:
			if s.N != 1 || math.Abs(s.CLogPRatio-3) > 1e-12 {
				t.Errorf("contention summary %+v", s)
			}
		case ExecTime:
			if s.N != 1 || s.CLogPTrendPct != 100 {
				t.Errorf("exec summary %+v", s)
			}
		}
	}
}

// TestAccuracyEndToEnd computes the dashboard on real tiny-scale runs
// and asserts the paper's headline: the locality abstraction (CLogP) is
// uniformly more accurate than ignoring locality (LogP) on latency.
func TestAccuracyEndToEnd(t *testing.T) {
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{4, 8}, Parallel: 4})
	frs, err := s.AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	sums := Summarize(Accuracy(frs))
	for _, sum := range sums {
		if sum.Metric != LatencyOvh {
			continue
		}
		cErr := math.Abs(math.Log(sum.CLogPRatio))
		lErr := math.Abs(math.Log(sum.LogPRatio))
		if cErr >= lErr {
			t.Errorf("latency: CLogP error %.3f not below LogP %.3f", cErr, lErr)
		}
		if sum.CLogPTrendPct < 80 {
			t.Errorf("CLogP latency trend agreement only %.0f%%", sum.CLogPTrendPct)
		}
	}
}

// TestErrorMatrixAddsNoRepeatRun: the figures' points are a subset of
// the error matrix, so after AllFigures the matrix, at the same options,
// simulates only the cube sweeps no figure plots (cg, cholesky, ep and
// is), and no point twice.
func TestErrorMatrixAddsNoRepeatRun(t *testing.T) {
	opt := Options{Scale: apps.Tiny, Procs: []int{2, 4}, Parallel: 2}
	direct := NewSession(opt)
	var mu sync.Mutex
	runs := map[BatchPoint]int{}
	opt.Runner = func(pt BatchPoint) (*stats.Run, error) {
		mu.Lock()
		runs[pt.key()]++
		mu.Unlock()
		return direct.Run(pt)
	}
	s := NewSession(opt)
	if _, err := s.AllFigures(); err != nil {
		t.Fatal(err)
	}
	figures := len(runs)
	if _, err := s.ErrorMatrix(Selection{}); err != nil {
		t.Fatal(err)
	}
	added := map[string]bool{}
	for pt, n := range runs {
		if n != 1 {
			t.Errorf("%+v simulated %d times", pt, n)
		}
		if pt.Topology == "cube" && pt.App != "fft" {
			added[pt.App] = true
		}
	}
	want := 4 * len(opt.Procs) * 3 // four cube sweeps, three machines
	if got := len(runs) - figures; got != want || len(added) != 4 {
		t.Errorf("matrix added %d runs (cube sweeps of %v), want %d: the cube sweeps of cg, cholesky, ep and is",
			got, added, want)
	}
}

// TestSummarizeLeavesOutNaRows: a row with no sweep point where both
// values are positive has no ratio; the summary leaves it out and counts
// it, rather than folding a NaN into the mean.
func TestSummarizeLeavesOutNaRows(t *testing.T) {
	frs := []*FigureResult{
		syntheticResult(6, []float64{100, 200}, []float64{200, 400}, []float64{300, 600}), // contention
		syntheticResult(10, []float64{0, 0}, []float64{50, 60}, []float64{70, 80}),        // contention, target silent
	}
	rows := Accuracy(frs)
	if !math.IsNaN(rows[1].CLogPRatio) || !math.IsNaN(rows[1].LogPRatio) {
		t.Fatalf("row without a positive pair: %+v", rows[1])
	}
	sums := Summarize(rows)
	if len(sums) != 1 || sums[0].N != 1 || sums[0].Skipped != 1 || math.Abs(sums[0].CLogPRatio-2) > 1e-12 {
		t.Errorf("summary %+v, want the one real row counted and the other left out", sums)
	}
}

// TestVariantsAskNoTargetPoint: a variant that changes only the
// abstractions reads the paper's Target points, so after the paper's
// rows the per-class g, adaptive g and measured L rows ask the session
// for LogP and CLogP points alone, and for no point twice.
func TestVariantsAskNoTargetPoint(t *testing.T) {
	opt := Options{Scale: apps.Tiny, Procs: []int{2, 4}}
	direct := NewSession(opt)
	runs := map[BatchPoint]int{}
	opt.Runner = func(pt BatchPoint) (*stats.Run, error) {
		runs[pt.key()]++
		return direct.Run(pt)
	}
	s := NewSession(opt)
	if _, err := s.ErrorMatrix(Selection{}); err != nil {
		t.Fatal(err)
	}
	paper := len(runs)
	if _, err := s.ErrorMatrix(Selection{Variants: []string{"per-class g", "adaptive g", "measured L"}}); err != nil {
		t.Fatal(err)
	}
	kinds := map[machine.Kind]int{}
	for pt, n := range runs {
		if n != 1 {
			t.Errorf("%+v simulated %d times", pt, n)
		}
		kinds[pt.Kind]++
	}
	// Five applications on three networks at two p: 30 points per
	// machine for the paper, and three variants' worth more for each
	// abstraction.
	if paper != 90 || kinds[machine.Target] != 30 || kinds[machine.LogP] != 120 || kinds[machine.CLogP] != 120 {
		t.Errorf("paper rows ran %d points; with the variants, points per machine %v", paper, kinds)
	}
}
