package spasm

// Golden-shape tests: the paper's qualitative findings, asserted against
// the simulator at test scale.  These are the end-to-end checks that the
// reproduction actually reproduces — each test names the paper claim it
// guards.  The abstraction-error findings read the error matrix (the
// one computation behind "spasm figures -accuracy" and "spasm study
// error"); the others read their studies from the same session.  Every
// band is the value measured at the test's scale plus a stated margin,
// so a change that moves a finding fails here.

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"spasm/internal/exp"
)

// One session per scale serves every finding: tiny for all but the two
// that need the paper-scale workload.
var (
	tinySession  = sync.OnceValue(func() *Session { return NewSession(Options{Scale: Tiny, Procs: []int{4, 8, 16}}) })
	smallSession = sync.OnceValue(func() *Session { return NewSession(Options{Scale: Small, Procs: []int{4, 8, 16}}) })
)

// matrixRow returns the error-matrix row of (app, topo, metric) on s.
func matrixRow(t *testing.T, s *Session, app, topo string, m Metric) AccuracyRow {
	t.Helper()
	rows, err := s.ErrorMatrix(exp.Selection{Apps: []string{app}, Topologies: []string{topo}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Figure.Metric == m {
			return r
		}
	}
	t.Fatalf("no %v row for %s on %s", m, app, topo)
	return AccuracyRow{}
}

// inBand reports a value outside [lo, hi]; format and args name it.
func inBand(t *testing.T, v, lo, hi float64, format string, args ...any) {
	t.Helper()
	if !(v >= lo && v <= hi) {
		t.Errorf("%s = %.2f, outside [%.2f, %.2f]", fmt.Sprintf(format, args...), v, lo, hi)
	}
}

var paperTopologies = []string{"full", "cube", "mesh"}

// Claim (section 6.1): "the latency overhead curves for the LogP-based
// machines display a trend very similar to the target machine" — CLogP's
// latency overhead stays within a small constant factor of the target's
// for every application on every network.  Measured 1.16–1.60 (tiny,
// p4–16); band ±0.1.
func TestGoldenCLogPLatencyTracksTarget(t *testing.T) {
	s := tinySession()
	for _, app := range Apps() {
		for _, topo := range paperTopologies {
			r := matrixRow(t, s, app, topo, LatencyOvh)
			for i, p := range r.P {
				inBand(t, r.CLogP[i], 1.1, 1.7, "%s/%s CLogP/Target latency at p%d", app, topo, p)
			}
			if !r.CLogPTrend {
				t.Errorf("%s/%s: CLogP latency trend disagrees with the target's", app, topo)
			}
		}
	}
}

// Claim (section 6.2, Figure 1): ignoring locality multiplies FFT's
// latency overhead by about the items-per-block factor (4).  This needs
// the paper-scale workload: at Tiny scale synchronization traffic
// (identical on both machines) dilutes the data-reference factor.
// Measured LogP/CLogP 3.27–3.89 (small, p4–16); band [3, 4.5].
func TestGoldenFFTLocalityFactor(t *testing.T) {
	r := matrixRow(t, smallSession(), "fft", "full", LatencyOvh)
	for i, p := range r.P {
		inBand(t, r.LogP[i]/r.CLogP[i], 3, 4.5, "FFT LogP/CLogP latency at p%d", p)
	}
}

// Claim (section 6.1): the g-gap contention estimate is pessimistic, and
// the pessimism grows as connectivity drops: for every application the
// CLogP-to-target contention ratio rises from the full network to the
// cube to the mesh.  Measured mesh/full 2.55–2.96 and mesh 2.79–4.42
// (tiny geometric means); bands ≥ 2.2 and ≥ 2.5.
func TestGoldenGapPessimismGrowsWithLowerConnectivity(t *testing.T) {
	s := tinySession()
	for _, app := range Apps() {
		var g []float64
		for _, topo := range paperTopologies {
			g = append(g, matrixRow(t, s, app, topo, ContentionOvh).CLogPRatio)
		}
		if !(g[0] < g[1] && g[1] < g[2]) {
			t.Errorf("%s: CLogP contention pessimism full %.2f, cube %.2f, mesh %.2f does not grow", app, g[0], g[1], g[2])
		}
		inBand(t, g[2]/g[0], 2.2, math.Inf(1), "%s mesh/full CLogP contention pessimism", app)
		inBand(t, g[2], 2.5, math.Inf(1), "%s mesh CLogP/Target contention", app)
	}
}

// Claim (Figures 10, 11): EP's communication locality makes the g
// estimate wildly pessimistic on the mesh — far worse than on the full
// network.  Measured LogP/Target 15.9 at p16 on the mesh, and 12.3 as
// the mesh-to-full ratio of geometric means (tiny); bands ≥ 12 and ≥ 9.
func TestGoldenEPMeshContentionPessimism(t *testing.T) {
	s := tinySession()
	mesh := matrixRow(t, s, "ep", "mesh", ContentionOvh)
	full := matrixRow(t, s, "ep", "full", ContentionOvh)
	last := len(mesh.P) - 1
	inBand(t, mesh.LogP[last], 12, math.Inf(1), "EP mesh LogP/Target contention at p%d", mesh.P[last])
	inBand(t, mesh.LogPRatio/full.LogPRatio, 9, math.Inf(1), "EP LogP contention pessimism mesh/full")
}

// Claim (Figure 12): EP's execution time agrees across all three
// machines (computation dominates).  Needs the paper-scale workload —
// the claim is about EP's high computation-to-communication ratio, which
// the Tiny problem size does not have.  Measured 1.00–1.08 at p4–8
// (small), where communication is negligible; band [0.95, 1.15].
func TestGoldenEPExecAgreement(t *testing.T) {
	r := matrixRow(t, smallSession(), "ep", "full", ExecTime)
	for i, p := range r.P {
		if p > 8 {
			continue
		}
		inBand(t, r.CLogP[i], 0.95, 1.15, "EP CLogP/Target exec at p%d", p)
		inBand(t, r.LogP[i], 0.95, 1.15, "EP LogP/Target exec at p%d", p)
	}
}

// Claim (Figures 15-18): for the dynamic applications, the plain LogP
// machine diverges sharply from the target at small p (every reference
// remote), while CLogP stays close.  Measured at p4 (tiny): LogP/Target
// 3.32–3.59, CLogP/Target 1.28; bands ≥ 3 and ≤ 1.45.
func TestGoldenDynamicAppsLogPDivergence(t *testing.T) {
	s := tinySession()
	for _, app := range []string{"cg", "cholesky"} {
		r := matrixRow(t, s, app, "full", ExecTime)
		inBand(t, r.LogP[0], 3, math.Inf(1), "%s LogP/Target exec at p%d", app, r.P[0])
		inBand(t, r.CLogP[0], 0, 1.45, "%s CLogP/Target exec at p%d", app, r.P[0])
	}
}

// Claim (section 7, speed of simulation): the LogP machine is the most
// expensive to simulate (most network events).  Suite-summed, that holds
// at tiny p ≤ 8 only: at p16 LogP dispatches 0.99× Target's events and
// fewer than CLogP's (EXPERIMENTS S1 lists the exceptions).  Measured
// LogP/Target 1.34–1.63 and LogP/CLogP 1.39–1.68 at p4–8; bands ≥ 1.2.
func TestGoldenSimulationCostOrdering(t *testing.T) {
	s := tinySession()
	for _, p := range []int{4, 8} {
		rows, err := s.SimulationCost("full", p)
		if err != nil {
			t.Fatal(err)
		}
		events := map[Kind]float64{}
		for _, r := range rows {
			events[r.Machine] = float64(r.Events)
		}
		inBand(t, events[LogP]/events[Target], 1.2, math.Inf(1), "LogP/Target events at p%d", p)
		inBand(t, events[LogP]/events[CLogP], 1.2, math.Inf(1), "LogP/CLogP events at p%d", p)
	}
}

// Claim (section 7 ablation): enforcing g only between identical
// communication events brings contention much closer to the target.
// Measured (tiny, FFT on cube, p4–16): strict gap 2.42–2.80× the
// target, per-class 1.27–1.47×, so per-class keeps 19–32 % of the
// strict gap's excess; bands ≥ 2.2, ≤ 1.6 and ≤ 45 %.
func TestGoldenAblationReducesPessimism(t *testing.T) {
	rows, err := tinySession().ErrorMatrix(exp.Selection{Apps: []string{"fft"}, Topologies: []string{"cube"},
		Metrics: []Metric{ContentionOvh}, Variants: []string{"per-class g"}})
	if err != nil {
		t.Fatal(err)
	}
	strict, perClass := rows[0], rows[1]
	for i, p := range strict.P {
		inBand(t, strict.CLogP[i], 2.2, math.Inf(1), "strict-gap/Target contention at p%d", p)
		inBand(t, perClass.CLogP[i], 1, 1.6, "per-class/Target contention at p%d", p)
		inBand(t, (perClass.CLogP[i]-1)/(strict.CLogP[i]-1), 0, 0.45,
			"per-class share of the strict gap's excess at p%d", p)
	}
}

// Claim (section 3.2): CLogP models the MINIMUM messages any
// invalidation protocol could achieve, so a protocol that produces
// fewer messages sits closer to it.  Berkeley's cache-to-cache supply
// produces less traffic than MSI's writeback-and-refetch on migratory
// data (CHOLESKY's), so there Berkeley's message excess over CLogP's is
// the smaller.  Measured (tiny, full, p8): 0.83 of MSI's excess; band
// [0.7, 0.9].  Every application stays at or above the CLogP minimum.
func TestGoldenFancierProtocolAgreesCloser(t *testing.T) {
	s := tinySession()
	rows, err := ProtocolComparison(s, "full", 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		cl, err := s.Run(BatchPoint{App: r.App, Config: Config{Kind: CLogP, Topology: "full", P: 8}})
		if err != nil {
			t.Fatal(err)
		}
		base, bk, msi := float64(cl.Messages()), float64(r.BerkeleyMsgs), float64(r.MSIMsgs)
		if bk < base {
			t.Errorf("%s: Berkeley messages %v below the CLogP minimum %v", r.App, bk, base)
		}
		if r.App == "cholesky" {
			inBand(t, (bk-base)/(msi-base), 0.7, 0.9, "cholesky Berkeley/MSI message excess over CLogP")
		}
	}
}

// Claim (section 6.2): the number of network accesses on the CLogP
// machine — the locality abstraction — closely matches the target
// machine's data traffic, because the protocol state machines are
// identical; the difference is only the coherence-maintenance messages,
// so CLogP carries a fixed share of the target's messages.  Measured
// CLogP/Target messages 0.45–0.75 on every network (tiny, p4–16); band
// [0.4, 0.8].
func TestGoldenLocalityAbstractionMessageAgreement(t *testing.T) {
	s := tinySession()
	for _, app := range Apps() {
		for _, topo := range paperTopologies {
			r := matrixRow(t, s, app, topo, exp.MessageCount)
			for i, p := range r.P {
				inBand(t, r.CLogP[i], 0.4, 0.8, "%s/%s CLogP/Target messages at p%d", app, topo, p)
			}
		}
	}
}
