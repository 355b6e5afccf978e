// Package report renders experiment results as fixed-width tables, CSV,
// and terminal line charts — the textual equivalent of the paper's
// figures.
package report

import (
	"fmt"
	"strings"

	"spasm/internal/exp"
	"spasm/internal/machine"
)

// Table is a simple fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	// Note, when set, is printed on its own line under the rows.
	Note string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	return b.String()
}

// figureLabel names a figure for titles: the paper number, or "Ad-hoc
// figure" for CustomFigure results.
func figureLabel(f exp.Figure) string {
	if f.Num == 0 {
		return "Ad-hoc figure"
	}
	return fmt.Sprintf("Figure %d", f.Num)
}

// machineLabel gives each machine its display name and chart marker.
func machineLabel(k machine.Kind) (name string, marker byte) {
	switch k {
	case machine.Target:
		return "Target", 'T'
	case machine.LogP:
		return "LogP", 'L'
	case machine.CLogP:
		return "LogP+Cache", 'C'
	default:
		return "Ideal", 'I'
	}
}

// FigureTable renders a figure's sweep as a table: one row per processor
// count, one column per machine.
func FigureTable(fr *exp.FigureResult) *Table {
	t := &Table{
		Title:   fmt.Sprintf("%s — %s (values in us)", figureLabel(fr.Figure), fr.Figure.Caption()),
		Headers: []string{"procs"},
	}
	for _, s := range fr.Series {
		name, _ := machineLabel(s.Machine)
		t.Headers = append(t.Headers, name)
	}
	if len(fr.Series) == 0 {
		return t
	}
	for i, pt := range fr.Series[0].Points {
		row := []interface{}{pt.P}
		for _, s := range fr.Series {
			row = append(row, s.Points[i].Value)
		}
		t.Add(row...)
	}
	return t
}

// FigureCSV renders a figure's sweep as CSV with a header row.
func FigureCSV(fr *exp.FigureResult) string {
	var b strings.Builder
	b.WriteString("figure,app,topology,metric,procs")
	for _, s := range fr.Series {
		name, _ := machineLabel(s.Machine)
		fmt.Fprintf(&b, ",%s_us", strings.ReplaceAll(strings.ToLower(name), "+", ""))
	}
	b.WriteByte('\n')
	if len(fr.Series) == 0 {
		return b.String()
	}
	for i, pt := range fr.Series[0].Points {
		fmt.Fprintf(&b, "%d,%s,%s,%s,%d",
			fr.Figure.Num, fr.Figure.App, fr.Figure.Topology, fr.Figure.Metric, pt.P)
		for _, s := range fr.Series {
			fmt.Fprintf(&b, ",%.3f", s.Points[i].Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
