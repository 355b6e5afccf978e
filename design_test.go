package spasm

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventory: DESIGN.md's repository layout names every package
// under internal/, and every package it names exists.
func TestDesignInventory(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, layout, ok := strings.Cut(string(raw), "## 6. Repository layout")
	if !ok {
		t.Fatal("DESIGN.md has no repository layout section")
	}
	_, tree, ok := strings.Cut(layout, "\ninternal/\n")
	if !ok {
		t.Fatal("the repository layout has no internal/ tree")
	}
	// The tree indents a package two spaces per level under internal/;
	// its description may wrap onto lines that name no package.
	entry := regexp.MustCompile(`^((?:  )+)([a-z]+)/ `)
	named := map[string]bool{}
	var parents []string
	for _, line := range strings.Split(tree, "\n") {
		if !strings.HasPrefix(line, " ") {
			break
		}
		m := entry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		depth := len(m[1]) / 2
		if depth > len(parents)+1 {
			t.Fatalf("DESIGN.md tree line %q is nested under nothing", line)
		}
		parents = append(parents[:depth-1], m[2])
		named[filepath.Join(append([]string{"internal"}, parents...)...)] = true
	}

	packages := map[string]bool{}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			packages[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range packages {
		if !named[dir] {
			t.Errorf("package %s is missing from DESIGN.md's repository layout", dir)
		}
	}
	for dir := range named {
		if !packages[dir] {
			t.Errorf("DESIGN.md's repository layout names %s, which is no package", dir)
		}
	}
}

// TestDocBudget: each design document stays within a byte ceiling, set at
// its size when the budget was introduced and rounded up to the next KB.
// A change that needs more room moves history to CHANGES.md, or raises
// the ceiling on purpose in the same diff.  bench/README.md belongs to
// the benchmark contract and PAPER.md is the source paper's abstract, so
// neither has a budget here.
func TestDocBudget(t *testing.T) {
	for path, kb := range map[string]int64{
		"README.md":         13,
		"DESIGN.md":         23,
		"EXPERIMENTS.md":    15,
		"docs/INTERNALS.md": 45,
		"docs/SERVICE.md":   21,
	} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > kb<<10 {
			t.Errorf("%s is %d bytes, over its %d KB budget", path, fi.Size(), kb)
		}
	}
}

// TestDashboardMatchesResults: EXPERIMENTS.md's accuracy dashboard quotes
// the summary of results/accuracy.txt cell for cell, so a regeneration
// that moves a number cannot leave the prose behind.  It runs no
// simulation; CI's drift step keeps results/ itself current.
func TestDashboardMatchesResults(t *testing.T) {
	norm := strings.NewReplacer("**", "", "×", "x", " %", "%")
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, dash, _ := strings.Cut(string(doc), "## Abstraction-accuracy dashboard")
	dash, _, _ = strings.Cut(dash, "\n## ")
	var want []string
	for _, line := range strings.Split(dash, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 6 || strings.Contains(line, "---") || strings.Contains(line, "metric") {
			continue
		}
		for i := range cells {
			cells[i] = norm.Replace(strings.TrimSpace(cells[i]))
		}
		want = append(want, strings.Join(cells, " | "))
	}

	res, err := os.ReadFile(filepath.Join("results", "accuracy.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, summary, _ := strings.Cut(string(res), "summary by metric:")
	var got []string
	gap := regexp.MustCompile(`\s{2,}`) // "execution time" is one cell
	for _, line := range strings.Split(summary, "\n") {
		cells := gap.Split(strings.TrimSpace(line), -1)
		if len(cells) == 6 && cells[0] != "metric" {
			got = append(got, strings.Join(cells, " | "))
		}
	}
	if len(got) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("EXPERIMENTS.md dashboard:\n%s\nresults/accuracy.txt summary:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}
