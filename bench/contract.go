package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef is one metric of BENCHMARK.json.  Bound is set for
// end-to-end metrics only: the share of the parent's median by which the
// metric may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is BENCHMARK.json: the one place metric names, units,
// directions and bounds are written down.  The harness reads it at run
// time so a metric renamed in code but not in the contract (or the
// reverse) fails the run instead of a later review.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadContract finds BENCHMARK.json beside the bench directory (the
// working directory under bench/run.sh and `go -C bench test .`) or in the working
// directory itself.
func loadContract() (*contract, error) {
	var firstErr error
	for _, path := range []string{"../BENCHMARK.json", "BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(data, &c); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &c, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json beside or in the working directory: %w", firstErr)
}

func (c *contract) why(workload string) string {
	for _, w := range c.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run against the list the
// contract says that run must emit: every name exactly once, finite.
type metricSet struct {
	defs  []metricDef
	vals  map[string]value
	wrong []string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]value, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name != name {
			continue
		}
		switch _, dup := m.vals[name]; {
		case dup:
			m.wrong = append(m.wrong, name+": emitted twice")
		case math.IsNaN(v) || math.IsInf(v, 0):
			m.wrong = append(m.wrong, fmt.Sprintf("%s: not a finite number (%v)", name, v))
		default:
			m.vals[name] = value{Value: v, Unit: d.Unit}
		}
		return
	}
	m.wrong = append(m.wrong, name+": not in BENCHMARK.json")
}

// problems lists every departure from the contract: names emitted that
// it does not have, and names it has that were not emitted.
func (m *metricSet) problems() []string {
	out := append([]string(nil), m.wrong...)
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name+": not emitted")
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by nearest rank on the sorted
// sample; it is used for the tail percentiles of the per-layer list.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
