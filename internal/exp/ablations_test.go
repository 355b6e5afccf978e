package exp

import (
	"testing"

	"spasm/internal/mem"
)

func TestTraceDrivenStudyRuns(t *testing.T) {
	rows, err := tinySession().TraceDrivenStudy("full", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Events == 0 || r.ExecDriven <= 0 || r.TraceDriven <= 0 {
			t.Errorf("%s: degenerate row %+v", r.App, r)
		}
	}
}

func TestExtendedAppStudyMG(t *testing.T) {
	rows, err := tinySession().ExtendedAppStudy("mg", "cube", []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.TargetExec <= 0 || r.CLogPExec <= 0 || r.LogPExec <= 0 {
			t.Errorf("p=%d: degenerate row %+v", r.P, r)
		}
		// The paper's accuracy result must extend to the hierarchical
		// workload: CLogP latency within a small factor of the target,
		// and LogP slower than CLogP (locality matters here too).
		if r.CLogPLatencyRatio < 0.5 || r.CLogPLatencyRatio > 4 {
			t.Errorf("p=%d: CLogP latency ratio %.2f outside [0.5, 4]", r.P, r.CLogPLatencyRatio)
		}
		if r.LogPExec <= r.CLogPExec {
			t.Errorf("p=%d: LogP exec %.0f not above CLogP %.0f", r.P, r.LogPExec, r.CLogPExec)
		}
	}
}

func TestTopologyStudy(t *testing.T) {
	rows, err := tinySession().TopologyStudy("is", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byTopo := map[string]TopologyRow{}
	for _, r := range rows {
		if r.TargetExec <= 0 || r.CLogPExec <= 0 || r.G <= 0 {
			t.Errorf("%s: degenerate row %+v", r.Topology, r)
		}
		byTopo[r.Topology] = r
	}
	// The paper's connectivity argument, extended: the full network's
	// abstraction ratio is the best of the five.
	for _, topo := range []string{"cube", "mesh", "ring", "torus"} {
		if byTopo["full"].Ratio > byTopo[topo].Ratio {
			t.Errorf("full ratio %.2f above %s ratio %.2f",
				byTopo["full"].Ratio, topo, byTopo[topo].Ratio)
		}
	}
}

func TestPlacementStudy(t *testing.T) {
	rows, err := tinySession().PlacementStudy("cube", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	blocked, inter := rows[0], rows[1]
	if blocked.Placement != mem.Blocked || inter.Placement != mem.Interleaved {
		t.Fatalf("row order %v %v", blocked.Placement, inter.Placement)
	}
	// Destroying the data-partition alignment must increase the
	// network traffic (latency overhead tracks message count).
	if inter.Latency <= blocked.Latency {
		t.Errorf("interleaved latency %.0f not above blocked %.0f",
			inter.Latency, blocked.Latency)
	}
	if inter.TargetExec <= blocked.TargetExec {
		t.Errorf("interleaved exec %.0f not above blocked %.0f",
			inter.TargetExec, blocked.TargetExec)
	}
}

func TestDegradedLinkStudy(t *testing.T) {
	rows, err := tinySession().DegradedLinkStudy("fft", 16, []int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	healthy, degraded := rows[0], rows[1]
	// The detailed simulation must slow down behind the degraded link.
	if degraded.TargetExec <= healthy.TargetExec {
		t.Errorf("degraded link invisible to target: %.0f vs %.0f",
			degraded.TargetExec, healthy.TargetExec)
	}
	// The abstraction is structurally blind to a single slow link.
	if degraded.CLogPExec != healthy.CLogPExec {
		t.Errorf("abstraction changed without link information: %.0f vs %.0f",
			degraded.CLogPExec, healthy.CLogPExec)
	}
}

func TestTechnologyStudy(t *testing.T) {
	rows, err := tinySession().TechnologyStudy("is", "mesh", 8, []float64{20, 80, 320})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	// Faster links => faster execution on both machines.
	for i := 1; i < len(rows); i++ {
		if rows[i].TargetExec >= rows[i-1].TargetExec {
			t.Errorf("target exec did not improve: %.0f -> %.0f at %g MB/s",
				rows[i-1].TargetExec, rows[i].TargetExec, rows[i].LinkMBps)
		}
		if rows[i].CLogPExec >= rows[i-1].CLogPExec {
			t.Errorf("clogp exec did not improve: %.0f -> %.0f at %g MB/s",
				rows[i-1].CLogPExec, rows[i].CLogPExec, rows[i].LinkMBps)
		}
	}
	// As network overheads shrink, the abstraction converges on the
	// target (ratio moves toward 1).
	first, last := rows[0].Ratio, rows[len(rows)-1].Ratio
	if dist(first) < dist(last) {
		t.Errorf("abstraction did not converge: ratio %.2f -> %.2f", first, last)
	}
}

func dist(r float64) float64 {
	if r < 1 {
		return 1 - r
	}
	return r - 1
}

func TestBandwidthStudy(t *testing.T) {
	rows, err := tinySession().BandwidthStudy("full", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string]BandwidthRow{}
	for _, r := range rows {
		if r.PerProcMBps < 0 || r.TargetMBps <= 0 {
			t.Errorf("%s: degenerate row %+v", r.App, r)
		}
		// The target carries coherence traffic on top of the true
		// communication, so its demand is at least comparable.
		if r.TargetMBps < r.PerProcMBps/4 {
			t.Errorf("%s: target demand %.2f far below true demand %.2f",
				r.App, r.TargetMBps, r.PerProcMBps)
		}
		byApp[r.App] = r
	}
	// EP must be the least bandwidth-hungry application in the suite.
	for _, other := range []string{"is", "cg", "fft", "cholesky"} {
		if byApp["ep"].PerProcMBps >= byApp[other].PerProcMBps {
			t.Errorf("ep demand %.3f not below %s demand %.3f",
				byApp["ep"].PerProcMBps, other, byApp[other].PerProcMBps)
		}
	}
}

func TestProtocolComparisonInsensitivity(t *testing.T) {
	rows, err := tinySession().ProtocolComparison("full", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Berkeley <= 0 || r.MSI <= 0 || r.CLogP <= 0 {
			t.Errorf("%s: non-positive exec times %+v", r.App, r)
		}
		// The paper's claim (via Wood et al.): performance is not
		// very sensitive to the protocol.  Allow a generous band.
		ratio := r.MSI / r.Berkeley
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: MSI/Berkeley exec ratio %.2f outside [0.5, 2.0]", r.App, ratio)
		}
		if r.BerkeleyMsgs == 0 || r.MSIMsgs == 0 {
			t.Errorf("%s: zero traffic recorded", r.App)
		}
	}
}

func TestCacheSweepMissRateMonotone(t *testing.T) {
	rows, err := tinySession().CacheSweep("cg", "full", 4, []int{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Miss rate must not increase with cache size (modulo tiny
	// timing-dependent sync noise; allow 5% slack).
	for i := 1; i < len(rows); i++ {
		if rows[i].MissRate > rows[i-1].MissRate*1.05 {
			t.Errorf("miss rate rose with cache size: %dKB %.4f -> %dKB %.4f",
				rows[i-1].SizeKB, rows[i-1].MissRate, rows[i].SizeKB, rows[i].MissRate)
		}
	}
	// A 1 KB cache must miss more than a 64 KB cache on CG.
	if rows[0].MissRate <= rows[len(rows)-1].MissRate {
		t.Errorf("no working-set effect: %.4f vs %.4f", rows[0].MissRate, rows[len(rows)-1].MissRate)
	}
}

func TestAdaptiveGapBetweenStaticAndZero(t *testing.T) {
	// EP on the mesh is the paper's worst case for the static g.  The
	// adaptive estimate must not exceed the static one, and should be
	// strictly below it once communication locality exists.
	rows, err := tinySession().AdaptiveGapStudy("ep", "mesh", []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Adaptive > r.Static*1.01 {
			t.Errorf("p=%d: adaptive contention %.0f above static %.0f", r.P, r.Adaptive, r.Static)
		}
	}
	last := rows[len(rows)-1]
	if last.Adaptive >= last.Static {
		t.Errorf("adaptive g recovered no locality: %.0f vs %.0f", last.Adaptive, last.Static)
	}
}

func TestEffectiveLSeparatesCounteractingEffects(t *testing.T) {
	// Section 6.1 identifies two counteracting effects in L: pessimism
	// from pricing every message at 32 bytes, and optimism from not
	// carrying coherence traffic.  Deriving L from the target's
	// measured mean message size removes the first effect, so the
	// CLogP latency must drop below the fixed-L value — and, with the
	// size pessimism gone, the remaining difference from the target is
	// the coherence-traffic optimism (CLogP at or below the target).
	rows, err := tinySession().EffectiveLStudy("fft", "full", []int{8})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.MeanMsgBytes <= 0 || r.MeanMsgBytes > 32 {
		t.Errorf("mean message bytes = %.1f", r.MeanMsgBytes)
	}
	if r.EffLatency >= r.L32Latency {
		t.Errorf("effective L %.0f did not reduce the fixed-L latency %.0f",
			r.EffLatency, r.L32Latency)
	}
	if r.L32Latency <= r.TargetLatency {
		t.Errorf("fixed 32-byte L not pessimistic: %.0f vs target %.0f",
			r.L32Latency, r.TargetLatency)
	}
	if r.EffLatency > r.TargetLatency*1.05 {
		t.Errorf("size-corrected L still above target: %.0f vs %.0f",
			r.EffLatency, r.TargetLatency)
	}
}
