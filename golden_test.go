package spasm

// Golden-shape tests: the paper's qualitative findings, asserted against
// the simulator at test scale.  These are the end-to-end checks that the
// reproduction actually reproduces — each test names the paper claim it
// guards.

import (
	"math"
	"testing"
)

func goldenSession(t *testing.T) *Session {
	t.Helper()
	return NewSession(Options{Scale: Tiny, Procs: []int{4, 8, 16}})
}

func seriesValue(fr *FigureResult, kind Kind, idx int) float64 {
	for _, s := range fr.Series {
		if s.Machine == kind {
			return s.Points[idx].Value
		}
	}
	return math.NaN()
}

// Claim (section 6.1): "the latency overhead curves for the LogP-based
// machines display a trend very similar to the target machine" — CLogP's
// latency overhead stays within a small constant factor of the target's
// for every application.
func TestGoldenCLogPLatencyTracksTarget(t *testing.T) {
	s := goldenSession(t)
	for _, fig := range Figures() {
		if fig.Metric != LatencyOvh {
			continue
		}
		fr, err := s.Figure(fig)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fr.Series[0].Points {
			cl := seriesValue(fr, CLogP, i)
			tgt := seriesValue(fr, Target, i)
			if tgt == 0 {
				continue
			}
			if r := cl / tgt; r < 0.5 || r > 4 {
				t.Errorf("%s p=%d: CLogP/Target latency = %.2f, outside [0.5, 4]",
					fig.ID(), fr.Series[0].Points[i].P, r)
			}
		}
	}
}

// Claim (section 6.2, Figure 1): ignoring locality multiplies FFT's
// latency overhead by about the items-per-block factor.  This needs the
// paper-scale workload: at Tiny scale synchronization traffic (identical
// on both machines) dilutes the data-reference factor.
func TestGoldenFFTLocalityFactor(t *testing.T) {
	s := NewSession(Options{Scale: Small, Procs: []int{4, 8, 16}})
	fig, _ := FigureByNumber(1)
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range fr.Series[0].Points {
		lp := seriesValue(fr, LogP, i)
		cl := seriesValue(fr, CLogP, i)
		if lp < 2*cl {
			t.Errorf("p=%d: LogP latency %.0f not >= 2x CLogP %.0f", pt.P, lp, cl)
		}
	}
}

// Claim (section 6.1): the g-gap contention estimate is pessimistic, and
// the pessimism grows as connectivity drops — the LogP-machine-to-target
// contention ratio on the mesh exceeds the ratio on the full network.
func TestGoldenGapPessimismGrowsWithLowerConnectivity(t *testing.T) {
	s := goldenSession(t)
	ratioAt := func(num int) float64 {
		fig, _ := FigureByNumber(num)
		fr, err := s.Figure(fig)
		if err != nil {
			t.Fatal(err)
		}
		last := len(fr.Series[0].Points) - 1
		return seriesValue(fr, CLogP, last) / seriesValue(fr, Target, last)
	}
	full := ratioAt(6) // IS on full: contention
	mesh := ratioAt(7) // IS on mesh: contention
	if mesh <= full {
		t.Errorf("gap pessimism on mesh (%.2fx) not above full (%.2fx)", mesh, full)
	}
	if mesh < 1 {
		t.Errorf("gap model not pessimistic on mesh: %.2fx", mesh)
	}
}

// Claim (Figures 10, 11): EP's communication locality makes the g
// estimate wildly pessimistic on the mesh — far worse than on the full
// network.
func TestGoldenEPMeshContentionPessimism(t *testing.T) {
	s := goldenSession(t)
	fig, _ := FigureByNumber(11)
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	last := len(fr.Series[0].Points) - 1
	lp := seriesValue(fr, LogP, last)
	tgt := seriesValue(fr, Target, last)
	if lp < 3*tgt {
		t.Errorf("EP mesh: LogP contention %.0f not >= 3x target %.0f", lp, tgt)
	}
}

// Claim (Figure 12): EP's execution time agrees across all three
// machines (computation dominates).  Needs the paper-scale workload —
// the claim is about EP's high computation-to-communication ratio, which
// the Tiny problem size does not have.
func TestGoldenEPExecAgreement(t *testing.T) {
	s := NewSession(Options{Scale: Small, Procs: []int{4, 8}})
	fig, _ := FigureByNumber(12)
	fr, err := s.Figure(fig)
	if err != nil {
		t.Fatal(err)
	}
	// Check at modest p where communication is negligible.
	for i, pt := range fr.Series[0].Points {
		if pt.P > 8 {
			continue
		}
		lp := seriesValue(fr, LogP, i)
		cl := seriesValue(fr, CLogP, i)
		tgt := seriesValue(fr, Target, i)
		for _, v := range []float64{lp, cl} {
			if r := v / tgt; r < 0.7 || r > 1.5 {
				t.Errorf("EP p=%d: machine exec %.0f vs target %.0f (ratio %.2f)",
					pt.P, v, tgt, r)
			}
		}
	}
}

// Claim (Figures 15-18): for the dynamic applications, the plain LogP
// machine diverges sharply from the target at small p (every reference
// remote), while CLogP stays close.
func TestGoldenDynamicAppsLogPDivergence(t *testing.T) {
	s := goldenSession(t)
	for _, num := range []int{15, 16} {
		fig, _ := FigureByNumber(num)
		fr, err := s.Figure(fig)
		if err != nil {
			t.Fatal(err)
		}
		lp := seriesValue(fr, LogP, 0) // p=4
		cl := seriesValue(fr, CLogP, 0)
		tgt := seriesValue(fr, Target, 0)
		if lp < 1.5*tgt {
			t.Errorf("%s p=4: LogP exec %.0f not >= 1.5x target %.0f", fig.ID(), lp, tgt)
		}
		if cl > lp {
			t.Errorf("%s p=4: CLogP exec %.0f above LogP %.0f", fig.ID(), cl, lp)
		}
	}
}

// Claim (section 7, speed of simulation): the LogP machine is the most
// expensive to simulate (most network events); the cached abstractions
// are cheaper.
func TestGoldenSimulationCostOrdering(t *testing.T) {
	s := NewSession(Options{Scale: Tiny, Procs: []int{8}})
	rows, err := s.SimulationCost("full", 8)
	if err != nil {
		t.Fatal(err)
	}
	var logp, clogp uint64
	for _, r := range rows {
		switch r.Machine {
		case LogP:
			logp = r.Events
		case CLogP:
			clogp = r.Events
		}
	}
	if logp <= clogp {
		t.Errorf("LogP events %d not above CLogP %d", logp, clogp)
	}
}

// Claim (section 7 ablation): enforcing g only between identical
// communication events brings contention much closer to the target.
func TestGoldenAblationReducesPessimism(t *testing.T) {
	rows, err := GapAblation(NewSession(Options{Scale: Tiny, Procs: []int{8, 16}}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PerClassGap >= r.CombinedGap {
			t.Errorf("p=%d: per-class %.0f not below combined %.0f", r.P, r.PerClassGap, r.CombinedGap)
		}
		// Closer to target: |perclass - target| < |combined - target|.
		if math.Abs(r.PerClassGap-r.Target) >= math.Abs(r.CombinedGap-r.Target) {
			t.Errorf("p=%d: per-class not closer to target (t=%.0f c=%.0f pc=%.0f)",
				r.P, r.Target, r.CombinedGap, r.PerClassGap)
		}
	}
}

// Claim (section 3.2): CLogP models the MINIMUM messages any
// invalidation protocol could achieve, so a protocol that produces
// fewer messages sits closer to it.  Berkeley's cache-to-cache supply
// produces less traffic than MSI's writeback-and-refetch on migratory
// data, so Berkeley's message count must sit at least as close to
// CLogP's as MSI's does.
func TestGoldenFancierProtocolAgreesCloser(t *testing.T) {
	msgs := func(proto Protocol) float64 {
		res, err := Run("cholesky", Tiny, 1, Config{
			Kind: Target, Topology: "full", P: 8, Protocol: proto,
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stats.Messages())
	}
	clogp, err := Run("cholesky", Tiny, 1, Config{Kind: CLogP, Topology: "full", P: 8})
	if err != nil {
		t.Fatal(err)
	}
	base := float64(clogp.Stats.Messages())
	bk, msi := msgs(BerkeleyProtocol), msgs(MSIProtocol)
	if bk < base {
		t.Errorf("Berkeley messages %v below the CLogP minimum %v", bk, base)
	}
	if (bk - base) > (msi - base) {
		t.Errorf("Berkeley (%v) not closer to CLogP (%v) than MSI (%v)", bk, base, msi)
	}
}

// Claim (section 6.2): the number of network accesses on the CLogP
// machine — the locality abstraction — closely matches the target
// machine's data traffic, because the protocol state machines are
// identical; the difference is only the coherence-maintenance messages.
func TestGoldenLocalityAbstractionMessageAgreement(t *testing.T) {
	s := goldenSession(t)
	for _, name := range Apps() {
		tgt, err := s.Run(BatchPoint{App: name, Config: Config{Kind: Target, Topology: "full", P: 8}})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := s.Run(BatchPoint{App: name, Config: Config{Kind: CLogP, Topology: "full", P: 8}})
		if err != nil {
			t.Fatal(err)
		}
		// CLogP carries a subset of the target's messages (coherence
		// actions are free), but must carry most of the data traffic.
		if cl.Messages() > tgt.Messages() {
			t.Errorf("%s: CLogP messages %d above target %d", name, cl.Messages(), tgt.Messages())
		}
		if cl.NetAccesses() == 0 && tgt.NetAccesses() > 0 {
			t.Errorf("%s: CLogP lost all network accesses", name)
		}
	}
}
