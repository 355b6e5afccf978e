package flow

import (
	"testing"

	"spasm/internal/network"
	"spasm/internal/sim"
)

func newNet(t *testing.T, topo string, p int) *Net {
	t.Helper()
	tp, err := network.New(topo, p)
	if err != nil {
		t.Fatal(err)
	}
	return New(tp)
}

// An uncontended flow finishes at now + Startup + bytes*ByteTime, is
// reported as share 1 with zero wait, and costs zero recomputations —
// the fast path the event-reduction claim rests on.
func TestUncontendedFastPath(t *testing.T) {
	n := newNet(t, "mesh", 8)
	n.Startup = 10
	x := n.Transfer(100, 0, 3, 32)
	want := sim.Time(100) + 10 + 32*n.ByteTime
	if x.End != want {
		t.Fatalf("End = %v, want %v", x.End, want)
	}
	if x.Share != 1 || x.Wait != 0 {
		t.Fatalf("uncontended flow reported share=%d wait=%v", x.Share, x.Wait)
	}
	if n.Recomputes != 0 {
		t.Fatalf("fast path performed %d recomputations", n.Recomputes)
	}
}

// Two flows admitted on the same route at the same instant share the
// bottleneck: the second sees share 2 and takes twice the contention-free
// time over the overlap.
func TestEqualShareStretch(t *testing.T) {
	n := newNet(t, "mesh", 8)
	a := n.Transfer(0, 0, 1, 100)
	b := n.Transfer(0, 0, 1, 100)
	if a.Share != 1 {
		t.Fatalf("first flow share = %d, want 1", a.Share)
	}
	if b.Share != 2 {
		t.Fatalf("second flow share = %d, want 2", b.Share)
	}
	// The first flow's committed finish is not re-opened (arrival-committed
	// approximation); the second runs at 1/2 rate until a departs, then at
	// full rate.  100 byte-times at share 2 until a's end (covering half the
	// bytes), remainder at share 1.
	need := sim.Time(100) * n.ByteTime
	if a.End != need {
		t.Fatalf("first flow End = %v, want %v", a.End, need)
	}
	if b.End <= a.End || b.End > 2*need {
		t.Fatalf("second flow End = %v, want in (%v, %v]", b.End, a.End, 2*need)
	}
	if b.Wait != b.End-need {
		t.Fatalf("second flow Wait = %v, want %v", b.Wait, b.End-need)
	}
	if n.Recomputes == 0 {
		t.Fatal("contended admission performed no recomputations")
	}
}

// Disjoint routes do not interact: a flow between one pair of nodes does
// not stretch a flow between another pair that shares no links or ports.
func TestDisjointRoutesIndependent(t *testing.T) {
	n := newNet(t, "full", 8)
	n.Transfer(0, 0, 1, 1000)
	x := n.Transfer(0, 2, 3, 10)
	if x.Share != 1 || x.Wait != 0 {
		t.Fatalf("disjoint flow reported share=%d wait=%v", x.Share, x.Wait)
	}
}

// Endpoint ports are resources too: in a fully-connected topology two
// flows out of the same source share its injection port even though the
// point-to-point links differ.
func TestInjectionPortContention(t *testing.T) {
	n := newNet(t, "full", 8)
	n.Transfer(0, 0, 1, 1000)
	x := n.Transfer(0, 0, 2, 10)
	if x.Share != 2 {
		t.Fatalf("second flow from node 0 share = %d, want 2 (inj port shared)", x.Share)
	}
	if x.Bottleneck != n.InjID(0) {
		t.Fatalf("bottleneck = %d, want inj port %d", x.Bottleneck, n.InjID(0))
	}
}

// Settle prunes departed flows: after the floor passes a flow's end it no
// longer competes.
func TestSettlePrunes(t *testing.T) {
	n := newNet(t, "mesh", 8)
	a := n.Transfer(0, 0, 1, 100)
	n.Settle(a.End)
	x := n.Transfer(a.End, 0, 1, 100)
	if x.Share != 1 {
		t.Fatalf("flow after settle share = %d, want 1", x.Share)
	}
}

// The active-flow table never exceeds MaxFlows, and admissions remain
// deterministic as the bound retires earliest-ending flows.
func TestMaxFlowsBound(t *testing.T) {
	n := newNet(t, "mesh", 8)
	n.MaxFlows = 8
	for i := 0; i < 100; i++ {
		n.Transfer(sim.Time(i), i%8, (i+1)%8, 4+i%9)
		if len(n.flows) > n.MaxFlows {
			t.Fatalf("flow table grew to %d, bound %d", len(n.flows), n.MaxFlows)
		}
	}
}

// Reset returns the net to its post-New state: a replayed sequence is
// bit-identical to the first run.
func TestResetReplay(t *testing.T) {
	n := newNet(t, "cube", 8)
	drive := func() (sim.Time, uint64, uint64) {
		var sum sim.Time
		for i := 0; i < 200; i++ {
			src, dst := (i*3)%8, (i*5+1)%8
			if src == dst {
				dst = (dst + 1) % 8
			}
			x := n.Transfer(sim.Time(i*2), src, dst, 8+i%17)
			sum += x.End + sim.Time(x.Share)
		}
		return sum, n.Messages, n.Recomputes
	}
	s1, m1, r1 := drive()
	n.Reset()
	if n.Messages != 0 || n.Recomputes != 0 || len(n.flows) != 0 {
		t.Fatal("Reset left state behind")
	}
	s2, m2, r2 := drive()
	if s1 != s2 || m1 != m2 || r1 != r2 {
		t.Fatalf("replay diverged: %v/%d/%d vs %v/%d/%d", s1, m1, r1, s2, m2, r2)
	}
}

// Transfers are valid at times earlier than previously seen (processors'
// local clocks are not globally ordered); schedules stay monotone per
// flow and never deliver before admission plus latency.
func TestOutOfOrderAdmission(t *testing.T) {
	n := newNet(t, "mesh", 8)
	times := []sim.Time{100, 40, 70, 10, 90}
	for _, at := range times {
		x := n.Transfer(at, 1, 2, 16)
		if x.End < at+x.Latency {
			t.Fatalf("flow admitted at %v delivered at %v, before latency %v elapsed", at, x.End, x.Latency)
		}
	}
}
