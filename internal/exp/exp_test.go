package exp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"spasm/internal/apps"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

func tinySession() *Session {
	return NewSession(Options{Scale: apps.Tiny, Procs: []int{2, 4}})
}

func TestFigureRegistryComplete(t *testing.T) {
	if len(Figures) != 20 {
		t.Fatalf("%d figures, want 20", len(Figures))
	}
	for i, f := range Figures {
		if f.Num != i+1 {
			t.Errorf("figure %d out of order", f.Num)
		}
		if f.ID() == "" || f.Caption() == "" {
			t.Errorf("figure %d missing id/caption", f.Num)
		}
	}
	// Spot-check captions against the paper.
	checks := map[int]string{
		1:  "FFT on Full: Latency",
		7:  "IS on Mesh: Contention",
		11: "EP on Mesh: Contention",
		18: "CHOLESKY on Mesh: Execution Time",
	}
	for n, want := range checks {
		f, err := ByNumber(n)
		if err != nil || f.Caption() != want {
			t.Errorf("figure %d caption = %q, want %q", n, f.Caption(), want)
		}
	}
	if _, err := ByNumber(21); err == nil {
		t.Error("figure 21 should not exist")
	}
}

func TestEveryAppAndTopologyAppears(t *testing.T) {
	appsSeen := map[string]bool{}
	toposSeen := map[string]bool{}
	for _, f := range Figures {
		appsSeen[f.App] = true
		toposSeen[f.Topology] = true
	}
	for _, a := range []string{"ep", "is", "fft", "cg", "cholesky"} {
		if !appsSeen[a] {
			t.Errorf("app %s in no figure", a)
		}
	}
	for _, topo := range []string{"full", "cube", "mesh"} {
		if !toposSeen[topo] {
			t.Errorf("topology %s in no figure", topo)
		}
	}
}

func TestSessionCaching(t *testing.T) {
	s := tinySession()
	a, err := s.Run(point("ep", "full", machine.CLogP, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(point("ep", "full", machine.CLogP, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache miss on identical run")
	}
	c, err := s.Run(point("ep", "full", machine.CLogP, 4))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different P hit the same cache entry")
	}
}

func TestFigureSweep(t *testing.T) {
	s := tinySession()
	fig, _ := ByNumber(3) // EP on full, latency — the cheapest app
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Series) != 3 {
		t.Fatalf("%d series, want 3", len(fr.Series))
	}
	for _, series := range fr.Series {
		if len(series.Points) != 2 {
			t.Fatalf("%d points, want 2", len(series.Points))
		}
		for _, pt := range series.Points {
			if pt.Value < 0 || pt.Run == nil {
				t.Errorf("bad point %+v", pt)
			}
		}
	}
}

func TestValueExtraction(t *testing.T) {
	s := tinySession()
	r, err := s.Run(point("is", "full", machine.Target, 4))
	if err != nil {
		t.Fatal(err)
	}
	if Value(ExecTime, r) <= 0 {
		t.Error("exec time not positive")
	}
	if Value(LatencyOvh, r) <= 0 {
		t.Error("IS on target has zero latency overhead")
	}
	if got := Value(ExecTime, r); got != r.Total.Micros() {
		t.Errorf("exec value %v != total %v", got, r.Total.Micros())
	}
}

func TestMetricNames(t *testing.T) {
	if ExecTime.String() != "execution time" || LatencyOvh.String() != "latency" ||
		ContentionOvh.String() != "contention" {
		t.Error("metric names wrong")
	}
	if !strings.Contains(Metric(9).String(), "9") {
		t.Error("unknown metric name")
	}
}

func TestGapTableMatchesPaper(t *testing.T) {
	rows := GapTable([]int{8, 16, 64})
	want := map[string]map[int]sim.Time{
		"full":  {16: sim.Micros(0.2), 64: sim.Micros(0.05)},
		"cube":  {16: sim.Micros(1.6), 64: sim.Micros(1.6)},
		"mesh":  {16: sim.Micros(3.2), 64: sim.Micros(6.4)},
		"ring":  {8: sim.Micros(3.2), 16: sim.Micros(6.4)},
		"torus": {8: sim.Micros(1.6), 16: sim.Micros(1.6)},
	}
	seen := 0
	for _, r := range rows {
		if w, ok := want[r.Topology][r.P]; ok {
			seen++
			if r.G != w {
				t.Errorf("g(%s, %d) = %v, want %v", r.Topology, r.P, r.G, w)
			}
		}
	}
	if seen != 10 {
		t.Errorf("gap table missing entries: %d of 10", seen)
	}
}

func TestSimulationCost(t *testing.T) {
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{4}})
	rows, err := s.SimulationCost("full", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Events == 0 {
			t.Errorf("%v: zero events", r.Machine)
		}
	}
}

// TestGapAblationShape: the per-class discipline can only reduce
// gap-induced contention relative to the combined port, so FFT on the
// cube's per-class g row sits at or below the paper's row.
func TestGapAblationShape(t *testing.T) {
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{4, 8}})
	rows := matrixRows(t, s, "fft", "cube", ContentionOvh, "per-class g")
	for _, p := range []int{4, 8} {
		combined, _ := cell(t, rows[0], p)
		perClass, _ := cell(t, rows[1], p)
		if perClass > combined {
			t.Errorf("p=%d: per-class %.2fx > combined %.2fx", p, perClass, combined)
		}
	}
}

// TestPortModePlumbing: the gap discipline is a field of the point, so
// one session runs both and caches them apart.
func TestPortModePlumbing(t *testing.T) {
	s := tinySession()
	perClass := point("is", "mesh", machine.LogP, 4)
	perClass.PortMode = logp.PerClass
	a, err := s.Run(point("is", "mesh", machine.LogP, 4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run(perClass)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("per-class point served the combined run from the cache")
	}
	if Value(ContentionOvh, a) < Value(ContentionOvh, b) {
		t.Errorf("combined contention %v below per-class %v",
			Value(ContentionOvh, a), Value(ContentionOvh, b))
	}
}

func TestParallelPrefetchIdenticalResults(t *testing.T) {
	serial := NewSession(Options{Scale: apps.Tiny, Procs: []int{2, 4}})
	parallel := NewSession(Options{Scale: apps.Tiny, Procs: []int{2, 4}, Parallel: 8})
	a, err := serial.AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.AllFigures()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for si := range a[i].Series {
			for pi := range a[i].Series[si].Points {
				av := a[i].Series[si].Points[pi].Value
				bv := b[i].Series[si].Points[pi].Value
				if av != bv {
					t.Fatalf("%s series %d point %d: %v != %v",
						a[i].Figure.ID(), si, pi, av, bv)
				}
			}
		}
	}
}

func TestSpeedupStudy(t *testing.T) {
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{2, 4}})
	rows, err := s.Speedup("cg", "full", machine.Target, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Efficiency <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		// Real speedup cannot beat algorithmic speedup.
		if r.Speedup > r.AlgorithmicSpeedup*1.001 {
			t.Errorf("p=%d: speedup %.2f above algorithmic %.2f",
				r.P, r.Speedup, r.AlgorithmicSpeedup)
		}
		// Algorithmic speedup is bounded by P.
		if r.AlgorithmicSpeedup > float64(r.P)*1.001 {
			t.Errorf("p=%d: algorithmic speedup %.2f above P", r.P, r.AlgorithmicSpeedup)
		}
	}
	// EP (compute-bound) must scale better than IS (communication-
	// bound) on the target machine.
	epRows, err := s.Speedup("ep", "full", machine.Target, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	isRows, err := s.Speedup("is", "full", machine.Target, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if epRows[0].Efficiency <= isRows[0].Efficiency {
		t.Errorf("EP efficiency %.2f not above IS %.2f",
			epRows[0].Efficiency, isRows[0].Efficiency)
	}
}

func TestCustomFigure(t *testing.T) {
	s := tinySession()
	fr, err := s.CustomFigure("is", "torus", ContentionOvh)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Figure.ID() != "custom" {
		t.Errorf("id = %q", fr.Figure.ID())
	}
	if fr.Figure.Caption() != "IS on Torus: Contention" {
		t.Errorf("caption = %q", fr.Figure.Caption())
	}
	if len(fr.Series) != 3 || len(fr.Series[0].Points) != 2 {
		t.Fatalf("series %d, points %d", len(fr.Series), len(fr.Series[0].Points))
	}
	// Extension workloads sweep too.
	fr2, err := s.CustomFigure("mg", "ring", ExecTime)
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Figure.Caption() != "MG on Ring: Execution Time" {
		t.Errorf("caption = %q", fr2.Figure.Caption())
	}
	if _, err := s.CustomFigure("bogus", "ring", ExecTime); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestParseMetric(t *testing.T) {
	for name, want := range map[string]Metric{
		"latency": LatencyOvh, "contention": ContentionOvh,
		"exec": ExecTime, "execution": ExecTime,
	} {
		got, err := ParseMetric(name)
		if err != nil || got != want {
			t.Errorf("ParseMetric(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseMetric("speedup"); err == nil {
		t.Error("bad metric accepted")
	}
}

func TestUnknownAppError(t *testing.T) {
	s := tinySession()
	if _, err := s.Run(point("nope", "full", machine.Target, 2)); err == nil {
		t.Error("unknown app accepted")
	}
}

// TestSessionCachesByCanonicalConfig: a point that spells out a default
// is the point that leaves it zero.
func TestSessionCachesByCanonicalConfig(t *testing.T) {
	s := tinySession()
	a, err := s.Run(point("ep", "", machine.Target, 2))
	if err != nil {
		t.Fatal(err)
	}
	explicit := point("ep", "full", machine.Target, 2)
	explicit.LinkByteTime = sim.SerialByte
	b, err := s.Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("explicit defaults missed the cache")
	}
}

// TestOneExperimentPath: the experiment layer simulates through
// Session.simulate only.  The three runs that are not a function of
// (application, machine configuration) — a recorder wrap and a replay
// program, the slow-link wrap, a mutated program — are the exceptions.
func TestOneExperimentPath(t *testing.T) {
	allowed := map[string]bool{
		"simulate": true, "TraceDrivenStudy": true, "slowLink": true, "PlacementStudy": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || allowed[fn.Name.Name] {
					continue
				}
				ast.Inspect(fn, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "app" &&
						(sel.Sel.Name == "Execute" || sel.Sel.Name == "Run") {
						t.Errorf("%s: %s calls app.%s; simulate through the session", name, fn.Name.Name, sel.Sel.Name)
					}
					return true
				})
			}
		}
	}
}

// TestStudiesShareTheSession: a study asks its session for each point
// once, and a study whose points another already ran asks for nothing.
func TestStudiesShareTheSession(t *testing.T) {
	asked := map[BatchPoint]int{}
	inner := tinySession()
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{4}, Runner: func(pt BatchPoint) (*stats.Run, error) {
		asked[pt.key()]++
		return inner.Run(pt)
	}})

	matrixRows(t, s, "fft", "mesh", ExecTime, "one link 2x slower", "one link 4x slower", "one link 8x slower")
	if len(asked) != 3 {
		t.Errorf("fault rows asked for %v, want the paper's three p4 points: a slow link runs the target's own machine", asked)
	}

	if _, err := s.ProtocolComparison("full", 4); err != nil {
		t.Fatal(err)
	}
	before := len(asked)
	if _, err := s.BandwidthStudy("full", 4); err != nil {
		t.Fatal(err)
	}
	if len(asked) != before {
		t.Errorf("bandwidth after protocol asked for %d new points, want 0", len(asked)-before)
	}
	for pt, n := range asked {
		if n != 1 {
			t.Errorf("%+v asked for %d times", pt, n)
		}
	}
}

// TestFigureDropsUnrunnableP: a sweep past what an application can run
// on (FFT needs a row per processor: 16 at tiny) plots the points that
// exist, in the figure and in the points a service pre-submits, instead
// of failing the whole figure.
func TestFigureDropsUnrunnableP(t *testing.T) {
	s := NewSession(Options{Scale: apps.Tiny, Procs: []int{16, 32}})
	fig, _ := ByNumber(1)
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range fr.Series {
		if len(series.Points) != 1 || series.Points[0].P != 16 {
			t.Errorf("%v series %+v, want the p16 point alone", series.Machine, series.Points)
		}
	}
	if pts := fig.Points(s.Options()); len(pts) != 3 {
		t.Errorf("%d points to submit, want one per machine", len(pts))
	}
}
