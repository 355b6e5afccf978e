package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestQuickEmitsTheContract runs every workload in -quick mode, untraced,
// and one traced, and holds the output to BENCHMARK.json: every end-to-end
// name once per untraced run, every per-layer name once per traced run,
// each a well-formed name with a unit and a finite value, and no failed
// operation.  A metric renamed in the code or in the contract fails
// here, not in a later review.
func TestQuickEmitsTheContract(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	// A fresh checkout has no scratch directory: .gitignore names it.
	if err := os.RemoveAll(".bench_out"); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	// One traced run keeps the test short: the layer profile, which emits
	// all but three of the per-layer names, is the same code for all four.
	traced := map[string]bool{"paper-target": true}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && !traced[w.Name] {
				continue
			}
			defs := c.EndToEnd
			if trace == "1" {
				defs = c.PerLayer
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--quick", "--workload", w.Name, "--seed", "3", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var out outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, attempted %d, failed %d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace %s: %d metrics, contract has %d", w.Name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := out.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: %s not emitted", w.Name, trace, d.Name)
				case !name.MatchString(d.Name) || !unit.MatchString(v.Unit) || v.Unit != d.Unit:
					t.Errorf("%s trace %s: %s: bad name or unit %q (contract %q)", w.Name, trace, d.Name, v.Unit, d.Unit)
				}
				if n := strings.Count(stdout.String(), "\n  "+d.Name+" "); n != 1 {
					t.Errorf("%s trace %s: %s printed %d times", w.Name, trace, d.Name, n)
				}
			}
		}
	}
}

// TestSpreadMatchesPythonQuantiles pins the spread to the rule the
// benchmark is accepted by: statistics.quantiles(values, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
