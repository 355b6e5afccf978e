package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"spasm"
	"spasm/internal/report"
)

// figures is "spasm figures": the paper's evaluation — every numbered
// figure (1-20) as a table, chart and/or CSV, an ad-hoc figure for any
// -app/-topo/-metric, and the abstraction-accuracy dashboard over the
// figures (-accuracy).  The paper's textual experiments are studies
// ("spasm study speed|ablation|gtable").
//
// The underlying simulations run -jobs at a time on the batch scheduler
// with pooled run contexts.  Each simulation is deterministic, so
// neither the job count nor context reuse changes a simulated number.
func (c *cli) figures(args []string) error {
	fs := c.flags("figures")
	var f simFlags
	f.addSweep(fs, "2,4,8,16,32,64")
	fs.StringVar(&f.app, "app", "", "ad-hoc figure: application (with -topo and -metric)")
	fs.StringVar(&f.topo, "topo", "mesh", "ad-hoc figure: topology")
	var (
		figNum   = fs.Int("fig", 0, "figure number (0 = all)")
		format   = fs.String("format", "table,chart", "comma list of table, chart, csv")
		outDir   = fs.String("out", "", "write per-figure files to this directory")
		jobs     = fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulations (results are identical regardless of job count)")
		accuracy = fs.Bool("accuracy", false, "print the abstraction-accuracy dashboard")
		metric   = fs.String("metric", "contention", "ad-hoc figure: latency, contention or exec")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	opt, err := f.options()
	if err != nil {
		return err
	}
	opt.Parallel = *jobs
	s := spasm.NewSession(opt)

	if f.app != "" {
		m, err := spasm.ParseMetric(*metric)
		if err != nil {
			return err
		}
		fr, err := s.CustomFigure(f.app, f.topo, m)
		if err != nil {
			return err
		}
		return c.emitFigure(fr, *format, *outDir)
	}

	frs, err := regenerate(s, *figNum)
	if err != nil {
		return err
	}
	for _, fr := range frs {
		if err := c.emitFigure(fr, *format, *outDir); err != nil {
			return err
		}
	}
	if *accuracy {
		rows := spasm.Accuracy(frs)
		fmt.Fprintln(c.out, report.AccuracyTable(rows))
		fmt.Fprintln(c.out, report.AccuracySummaryTable("figs", spasm.Summarize(rows)))
	}
	return nil
}

// regenerate returns paper figure num, or all twenty when num is 0.
func regenerate(s *spasm.Session, num int) ([]*spasm.FigureResult, error) {
	if num == 0 {
		return s.AllFigures()
	}
	fig, err := spasm.FigureByNumber(num)
	if err != nil {
		return nil, err
	}
	fr, err := s.Figure(fig)
	return []*spasm.FigureResult{fr}, err
}

// emitFigure prints one regenerated figure in each requested format;
// with an output directory the CSV goes to <dir>/<figure id>.csv.
func (c *cli) emitFigure(fr *spasm.FigureResult, formats, outDir string) error {
	for _, format := range strings.Split(formats, ",") {
		switch strings.TrimSpace(format) {
		case "table":
			fmt.Fprintln(c.out, report.FigureTable(fr))
		case "chart":
			fmt.Fprintln(c.out, report.Chart(fr, 78, 22))
		case "csv":
			if outDir == "" {
				fmt.Fprint(c.out, report.FigureCSV(fr))
				continue
			}
			if err := c.writeFile(filepath.Join(outDir, fr.Figure.ID()+".csv"), report.FigureCSV(fr)); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFile writes content to path, creating its directory if needed.
func (c *cli) writeFile(path, content string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(c.out, "wrote", path)
	return nil
}
