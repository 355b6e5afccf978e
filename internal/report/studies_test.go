package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spasm/internal/apps"
	"spasm/internal/exp"
	"spasm/internal/machine"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// wantRow fails unless the table has exactly one data row whose cells
// are want.
func wantRow(t *testing.T, tb *Table, want ...string) {
	t.Helper()
	if len(tb.Rows) != 1 {
		t.Fatalf("%d rows, want 1:\n%s", len(tb.Rows), tb)
	}
	if got := strings.Join(tb.Rows[0], "|"); got != strings.Join(want, "|") {
		t.Errorf("row = %s, want %s", got, strings.Join(want, "|"))
	}
	if len(tb.Rows[0]) != len(tb.Headers) {
		t.Errorf("%d cells under %d headers", len(tb.Rows[0]), len(tb.Headers))
	}
}

func TestTableNote(t *testing.T) {
	tb := &Table{Headers: []string{"a"}, Note: "(footnote)"}
	tb.Add(1)
	if out := tb.String(); !strings.HasSuffix(out, "1\n(footnote)\n") {
		t.Errorf("note not rendered under the rows:\n%s", out)
	}
}

func TestCostTable(t *testing.T) {
	tb := CostTable("full", 8, []exp.CostRow{
		{Machine: machine.LogP, Events: 100, Wall: time.Second},
		{Machine: machine.Target, Events: 50, Wall: 1400 * time.Microsecond},
	})
	out := tb.String()
	for _, want := range []string{"full network at p=8", "logp", "target", "100", "1s", "1ms",
		"event ratio: clogp/target = 0.00, logp/target = 2.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("cost table missing %q:\n%s", want, out)
		}
	}
	if CostTable("full", 8, nil).Note != "" {
		t.Error("event-ratio note without a target row")
	}
}

// TestAblationAndGapTables: the ablation is an error-matrix variant row,
// which brings its own column and stays out of the summary under it.
func TestAblationAndGapTables(t *testing.T) {
	tb := ErrorTable([]int{8}, []exp.AccuracyRow{{
		Figure: exp.Figure{App: "fft", Topology: "cube", Metric: exp.ContentionOvh}, Variant: "per-class g",
		P: []int{8}, CLogP: []float64{1.27}, LogP: []float64{2.39}, CLogPRatio: 1.27, LogPRatio: 2.39, CLogPTrend: true,
	}})
	wantRow(t, tb, "fft", "cube", "contention", "per-class g", "1.27x/2.39x", "1.27x", "true", "2.39x", "false")
	if strings.Contains(tb.Note, "contention") {
		t.Errorf("variant row counted in the summary:\n%s", tb)
	}
	wantRow(t, GapParamTable([]exp.GapRow{{Topology: "mesh", P: 16, G: sim.Micros(3.2)}}),
		"mesh", "16", "3.200")
}

func TestAccuracyTables(t *testing.T) {
	fig, _ := exp.ByNumber(7)
	rows := []exp.AccuracyRow{{Figure: fig, CLogPRatio: 3.41, LogPRatio: 21.149, CLogPTrend: true}}
	wantRow(t, AccuracyTable(rows), "fig07", "IS on Mesh: Contention", "3.41x", "true", "21.15x", "false")
	wantRow(t, AccuracySummaryTable("figs", []exp.AccuracySummary{{Metric: exp.ExecTime, N: 7,
		CLogPRatio: 1.53, LogPRatio: 4.8, CLogPTrendPct: 85.7, LogPTrendPct: 57.1}}),
		"execution time", "7", "1.53x", "86%", "4.80x", "57%")
}

func TestSpeedupTable(t *testing.T) {
	tb := SpeedupTable("cg", "mesh", []exp.SpeedupRow{{P: 4, Exec: 100, IdealExec: 50, Speedup: 2, AlgorithmicSpeedup: 4, Efficiency: 0.5}})
	wantRow(t, tb, "4", "100.0", "50.0", "2.00x", "4.00x", "50%")
	if !strings.Contains(tb.Title, "cg on target/mesh") {
		t.Errorf("title %q", tb.Title)
	}
}

func TestProtocolTable(t *testing.T) {
	tb := ProtocolTable("full", 16, []exp.ProtocolRow{{App: "is", Berkeley: 100, MSI: 120, Update: 250, CLogP: 90}})
	wantRow(t, tb, "is", "100.0", "120.0", "250.0", "90.0", "1.20x", "2.50x")
	if !strings.Contains(tb.Title, "full network, p=16") {
		t.Errorf("title %q", tb.Title)
	}
}

func TestProcAndBatchTables(t *testing.T) {
	run := stats.NewRun(1)
	run.Procs[0].Finish = sim.Micros(420.9)
	run.Procs[0].Time[stats.Contention] = sim.Micros(136.6)
	run.Total = sim.Micros(423.3)
	run.SimEvents = 592
	wantRow(t, ProcTable(run), "0", "420.9", "0.0", "0.0", "0.0", "136.6", "0.0")

	pts := []exp.BatchPoint{{App: "fft", Config: machine.Config{Kind: machine.Target, Topology: "mesh", P: 4}}}
	tb := BatchTable(3, pts, []*stats.Run{run})
	wantRow(t, tb, "fft", "mesh", "target", "4", "423.3", "0", "592")
	if !strings.Contains(tb.Title, "1 points, 3 workers") {
		t.Errorf("title %q", tb.Title)
	}
}

// TestStudies runs every registered study at tiny scale on one session:
// each yields a well-formed table, fills its defaults, honours an
// explicit -app/-topo where it reads one, and — spot-checked against the
// typed exp methods the registry wraps, on a session of their own —
// prints the reference rows' numbers.
func TestStudies(t *testing.T) {
	session := func() *exp.Session { return exp.NewSession(exp.Options{Scale: apps.Tiny, Procs: []int{2, 4}}) }
	sess := session()
	args := StudyArgs{P: 4}
	tables := map[string]*Table{}
	for _, s := range Studies() {
		tb, err := s.Run(sess, args)
		if err != nil {
			t.Fatalf("study %s: %v", s.Name, err)
		}
		if tb.Title == "" || len(tb.Rows) == 0 {
			t.Errorf("study %s: empty table:\n%s", s.Name, tb)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Headers) {
				t.Errorf("study %s: row %v under headers %v", s.Name, row, tb.Headers)
			}
		}
		for _, def := range []string{s.App, s.Topo} {
			if def != "" && !strings.Contains(tb.Title, def) {
				t.Errorf("study %s: default %q not in title %q", s.Name, def, tb.Title)
			}
		}
		tables[s.Name] = tb
	}

	over := args
	over.App, over.Topo = "fft", "cube"
	for _, s := range Studies() {
		// Every study runs under "study all -app fft -topo cube"; one that
		// fixes the application or the network keeps its own.
		tb, err := s.Run(sess, over)
		if err != nil {
			t.Fatalf("study %s under -app fft -topo cube: %v", s.Name, err)
		}
		if s.Name == "cache" && !strings.Contains(tb.Title, "fft on target/cube") {
			t.Errorf("cache study ignored -app/-topo: %q", tb.Title)
		}
		if s.Name == "fault" && !strings.Contains(tb.Title, "fft on mesh") {
			t.Errorf("fault study left the mesh: %q", tb.Title)
		}
	}

	proto, err := session().ProtocolComparison("full", args.P)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range proto {
		if got, want := tables["protocol"].Rows[i][2], fmt.Sprintf("%.1f", r.MSI); got != want {
			t.Errorf("protocol %s msi_us = %s, typed row says %s", r.App, got, want)
		}
	}
	leff, err := session().ErrorMatrix(exp.Selection{Apps: []string{"fft"}, Topologies: []string{"full"},
		Metrics: []exp.Metric{exp.LatencyOvh}, Variants: []string{"measured L"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range leff {
		if got, want := tables["leff"].Rows[i][5], times(r.CLogP[1])+"/"+times(r.LogP[1]); got != want {
			t.Errorf("leff %q p4 = %s, matrix row says %s", r.Variant, got, want)
		}
	}
}
