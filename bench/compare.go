package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles compares two sets of recorded runs (--record files): A is
// the base — the parent commit, or the first of two sets of one commit —
// and B what is held against it.  For every end-to-end metric on every
// workload it prints both medians, both spreads and a verdict:
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is
//	unresolved  a set's own spread is wider than the bound, so the
//	            medians cannot settle it
//
// The spread is the driver's: the distance between the first and third
// quartiles as a share of the median.  BENCHMARK.json has one bound a
// metric, which the noisiest workload sets; a pairing that repeats better
// is held to less: twice the wider of the two spreads, no less than two
// fifths of the contract's bound (a tenth for the timed metrics) and no
// more than the contract's bound.  Per-layer metrics, from traced runs,
// are printed with their change and no verdict.  The statistics digests
// of a workload and seed that both sets ran must be equal.  The exit
// code is 1 if anything is worse or a digest differs.
func compareFiles(c *contract, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil {
		var b recordSet
		if b, err = readRecords(pathB); err == nil {
			return compareSets(c, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

// recordSet holds, per workload and metric, the values of the recorded
// runs, end-to-end and per-layer apart, and the digest of each workload
// and seed; two runs of one seed in one file must agree on it.
type recordSet struct {
	e2e, layer map[string]map[string][]float64
	digest     map[string]string
	host       hostInfo
}

func readRecords(path string) (recordSet, error) {
	rs := recordSet{e2e: map[string]map[string][]float64{}, layer: map[string]map[string][]float64{},
		digest: map[string]string{}}
	f, err := os.Open(path)
	if err != nil {
		return rs, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec recordLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return rs, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		into := rs.e2e
		if rec.Trace {
			into = rs.layer
		}
		if into[rec.Workload] == nil {
			into[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			into[rec.Workload][name] = append(into[rec.Workload][name], v.Value)
		}
		if key := fmt.Sprintf("%s seed %d", rec.Workload, rec.Seed); rec.Digest != "" {
			if prev, ok := rs.digest[key]; ok && prev != rec.Digest {
				return rs, fmt.Errorf("%s:%d: %s: stats_digest %.12s, an earlier run of the same seed had %.12s",
					path, line, key, rec.Digest, prev)
			}
			rs.digest[key] = rec.Digest
		}
		rs.host = rec.Host
	}
	return rs, sc.Err()
}

// spread is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(values, n=4) — the rule the
// benchmark is accepted by.  It needs two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs((q(3) - q(1)) / median(s))
}

func compareSets(c *contract, a, b recordSet, stdout io.Writer) int {
	fmt.Fprintf(stdout, "A: %s\nB: %s\n", a.host.line(), b.host.line())
	worse := 0
	for _, w := range c.Workloads {
		if a.e2e[w.Name] == nil || b.e2e[w.Name] == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s\n", w.Name)
		for _, d := range c.EndToEnd {
			va, vb := a.e2e[w.Name][d.Name], b.e2e[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			change := (mb - ma) / ma
			worsening := change
			if d.Better == "higher" {
				worsening = -change
			}
			wider := max(spread(va), spread(vb))
			bound := min(d.Bound, max(0.4*d.Bound, 2*wider))
			verdict := "ok"
			switch {
			case worsening > bound:
				verdict = "worse"
				worse++
			case wider > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "  %-18s %-6s A %12.6g (n %2d, spread %5.1f%%)  B %12.6g (n %2d, spread %5.1f%%)  change %+6.1f%%  bound %4.1f%%  %s\n",
				d.Name, d.Unit, ma, len(va), 100*spread(va), mb, len(vb), 100*spread(vb), 100*change, 100*bound, verdict)
		}
	}
	for _, w := range c.Workloads {
		if a.layer[w.Name] == nil || b.layer[w.Name] == nil {
			continue
		}
		fmt.Fprintf(stdout, "%s, per layer\n", w.Name)
		for _, d := range c.PerLayer {
			va, vb := a.layer[w.Name][d.Name], b.layer[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			fmt.Fprintf(stdout, "  %-34s %-6s A %12.6g  B %12.6g  change %+6.1f%%\n", d.Name, d.Unit, ma, mb, 100*(mb-ma)/math.Abs(ma))
		}
	}
	keys := make([]string, 0, len(a.digest))
	for k := range a.digest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	same, differ := 0, 0
	for _, k := range keys {
		if db, ok := b.digest[k]; ok {
			if db == a.digest[k] {
				same++
			} else {
				differ++
				fmt.Fprintf(stdout, "stats_digest differs: %s: A %.12s B %.12s\n", k, a.digest[k], db)
			}
		}
	}
	fmt.Fprintf(stdout, "stats_digest equal on %d workload-seed pairs, different on %d\n", same, differ)
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric-workload pairs worse\n", worse)
	}
	if worse > 0 || differ > 0 {
		return 1
	}
	return 0
}
