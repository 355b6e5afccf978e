package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spasm/internal/coherence"
	"spasm/internal/logp"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

func newSpace(p int) (*mem.Space, *mem.Array) {
	s := mem.NewSpace(p, 32)
	a := s.Alloc("x", p*64, 8, mem.Blocked)
	return s, a
}

func build(t *testing.T, cfg Config, s *mem.Space) Machine {
	t.Helper()
	m, err := New(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// driveOne runs fn inside a single simulated process.
func driveOne(t *testing.T, p int, fn func(*sim.Proc, *stats.Run)) *stats.Run {
	t.Helper()
	e := sim.NewEngine()
	run := stats.NewRun(p)
	e.Spawn("drv", func(pr *sim.Proc) { fn(pr, run) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestKindParsingAndNames(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Error("ParseKind(bogus) succeeded")
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind name empty")
	}
}

func TestIdealMachineUnitCost(t *testing.T) {
	s, a := newSpace(4)
	m := build(t, Config{Kind: Ideal}, s)
	run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
		for i := 0; i < 10; i++ {
			m.Read(p, &r.Procs[0], 0, a.At(i))
			m.Write(p, &r.Procs[0], 0, a.At(i))
		}
		if p.Now() != 20*sim.Cycles(1) {
			t.Errorf("ideal time = %v, want 20 cycles", p.Now())
		}
	})
	st := &run.Procs[0]
	if st.Messages != 0 || st.Time[stats.Latency] != 0 || st.Time[stats.Contention] != 0 {
		t.Error("ideal machine produced network overheads")
	}
	if st.Reads != 10 || st.Writes != 10 {
		t.Errorf("reads=%d writes=%d", st.Reads, st.Writes)
	}
}

func TestLogPLocalVsRemote(t *testing.T) {
	s, a := newSpace(4)
	m := build(t, Config{Kind: LogP, Topology: "full"}, s)
	run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo0, _ := a.OwnerRange(0)
		lo2, _ := a.OwnerRange(2)
		m.Read(p, &r.Procs[0], 0, a.At(lo0)) // local
		if r.Procs[0].Messages != 0 {
			t.Error("local reference used the network")
		}
		m.Read(p, &r.Procs[0], 0, a.At(lo2)) // remote
	})
	st := &run.Procs[0]
	if st.Messages != 2 || st.NetAccesses != 1 {
		t.Errorf("messages=%d netaccesses=%d", st.Messages, st.NetAccesses)
	}
	if st.Time[stats.Latency] != 2*logp.DefaultL {
		t.Errorf("latency = %v, want 2L", st.Time[stats.Latency])
	}
}

func TestLogPEveryRemoteReferenceCrossesNetwork(t *testing.T) {
	// No cache: re-reading the same remote word pays the network every
	// time — the heart of the paper's locality argument.
	s, a := newSpace(4)
	m := build(t, Config{Kind: LogP, Topology: "full"}, s)
	run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo2, _ := a.OwnerRange(2)
		for i := 0; i < 7; i++ {
			m.Read(p, &r.Procs[0], 0, a.At(lo2))
		}
	})
	if run.Procs[0].NetAccesses != 7 {
		t.Errorf("net accesses = %d, want 7", run.Procs[0].NetAccesses)
	}
}

func TestCLogPCachesRemoteData(t *testing.T) {
	s, a := newSpace(4)
	m := build(t, Config{Kind: CLogP, Topology: "full"}, s)
	run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo2, _ := a.OwnerRange(2)
		for i := 0; i < 7; i++ {
			m.Read(p, &r.Procs[0], 0, a.At(lo2)) // 1 miss, then hits
		}
	})
	st := &run.Procs[0]
	if st.NetAccesses != 1 {
		t.Errorf("net accesses = %d, want 1", st.NetAccesses)
	}
	if st.Hits != 6 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
}

func TestSpatialLocalityFactorFour(t *testing.T) {
	// The paper's FFT observation: reading 4 consecutive 8-byte items
	// costs 4 network accesses on LogP but 1 block fetch on CLogP.
	s, a := newSpace(4)
	lp := build(t, Config{Kind: LogP, Topology: "full"}, s)
	cl := build(t, Config{Kind: CLogP, Topology: "full"}, s)
	lo2, _ := a.OwnerRange(2)
	count := func(m Machine) uint64 {
		run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
			for i := 0; i < 4; i++ {
				m.Read(p, &r.Procs[0], 0, a.At(lo2+i))
			}
		})
		return run.Procs[0].NetAccesses
	}
	if l, c := count(lp), count(cl); l != 4 || c != 1 {
		t.Errorf("net accesses logp=%d clogp=%d, want 4 and 1", l, c)
	}
}

func TestTargetUsesDetailedFabric(t *testing.T) {
	s, a := newSpace(4)
	m := build(t, Config{Kind: Target, Topology: "mesh"}, s)
	run := driveOne(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo2, _ := a.OwnerRange(2)
		m.Read(p, &r.Procs[0], 0, a.At(lo2))
	})
	st := &run.Procs[0]
	if st.Messages != 2 {
		t.Errorf("messages = %d", st.Messages)
	}
	// Request (8 bytes) + data reply (32 bytes) at 33 units/byte.
	want := sim.Time(8+32) * sim.SerialByte
	if st.Time[stats.Latency] != want {
		t.Errorf("latency = %v, want %v", st.Time[stats.Latency], want)
	}
	tm := m.(*cachedMachine)
	if tm.Fabric() == nil || tm.Fabric().Messages != 2 {
		t.Error("fabric not used")
	}
	if err := CheckInvariants(tm); err != nil {
		t.Error(err)
	}
}

func TestGDerivedFromTopology(t *testing.T) {
	s, _ := newSpace(16)
	for topo, wantG := range map[string]sim.Time{
		"full": sim.Micros(0.2), // 3.2/16
		"cube": sim.Micros(1.6),
		"mesh": sim.Micros(3.2), // 0.8 * 4 columns
	} {
		m := build(t, Config{Kind: LogP, Topology: topo}, s)
		if g := m.(*logpMachine).Net().G; g != wantG {
			t.Errorf("g(%s) = %v, want %v", topo, g, wantG)
		}
	}
}

// TestExplicitLOverride: an explicit L replaces the paper's 1.6 us and
// leaves g derived from the topology.
func TestExplicitLOverride(t *testing.T) {
	s, _ := newSpace(4)
	m := build(t, Config{Kind: LogP, Topology: "full", L: 500}, s)
	n := m.(*logpMachine).Net()
	if want := sim.Micros(3.2 / 4); n.L != 500 || n.G != want {
		t.Errorf("L=%v G=%v, want 500 and %v", n.L, n.G, want)
	}
}

func TestConfigErrors(t *testing.T) {
	s, _ := newSpace(4)
	if _, err := New(Config{Kind: Target, Topology: "omega"}, s); err == nil {
		t.Error("bad topology accepted")
	}
	if _, err := New(Config{Kind: Kind(9)}, s); err == nil {
		t.Error("bad kind accepted")
	}
	if _, err := New(Config{Kind: Ideal, P: 8}, s); err == nil {
		t.Error("P mismatch accepted")
	}
}

func TestAdaptiveGPlumbing(t *testing.T) {
	s, a := newSpace(8)
	m := build(t, Config{Kind: LogP, Topology: "mesh", AdaptiveG: true}, s)
	net := m.(*logpMachine).Net()
	if net.Crosses == nil {
		t.Fatal("adaptive predicate not wired")
	}
	// Drive enough neighbour-local traffic to warm the history and
	// confirm the crossing counter stays low.
	run := driveOne(t, 8, func(pr *sim.Proc, r *stats.Run) {
		lo, _ := a.OwnerRange(1)
		for i := 0; i < 100; i++ {
			m.Read(pr, &r.Procs[0], 0, a.At(lo)) // nodes 0->1: same half
		}
	})
	_ = run
	if net.Crossing != 0 {
		t.Errorf("neighbour traffic counted as crossing: %d", net.Crossing)
	}
	if net.Messages == 0 {
		t.Error("no messages recorded")
	}
}

func TestLinkByteTimePlumbing(t *testing.T) {
	s, a := newSpace(4)
	fast := build(t, Config{Kind: Target, Topology: "full", LinkByteTime: 8}, s)
	lo2, _ := a.OwnerRange(2)
	run := driveOne(t, 4, func(pr *sim.Proc, r *stats.Run) {
		fast.Read(pr, &r.Procs[0], 0, a.At(lo2))
	})
	// Request (8B) + reply (32B) at 8 units/byte.
	if want := sim.Time(40 * 8); run.Procs[0].Time[stats.Latency] != want {
		t.Errorf("latency = %v, want %v", run.Procs[0].Time[stats.Latency], want)
	}
	// And the LogP default L scales with it: 32 bytes x 8 units.
	s2, _ := newSpace(4)
	lp := build(t, Config{Kind: LogP, Topology: "full", LinkByteTime: 8}, s2)
	if got := lp.(*logpMachine).Net().L; got != 256 {
		t.Errorf("scaled L = %v, want 256", got)
	}
}

func TestProtocolPlumbing(t *testing.T) {
	s, _ := newSpace(4)
	for _, proto := range []coherence.Protocol{coherence.Berkeley, coherence.MSI, coherence.Update} {
		m := build(t, Config{Kind: Target, Topology: "full", Protocol: proto}, s2space(t))
		if got := m.(*cachedMachine).eng.Protocol; got != proto {
			t.Errorf("engine protocol = %v, want %v", got, proto)
		}
	}
	_ = s
}

func s2space(t *testing.T) *mem.Space {
	t.Helper()
	s, _ := newSpace(4)
	return s
}

// TestTargetVsCLogPSameCacheBehavior is the machine-level version of the
// paper's premise: identical reference streams produce identical
// hit/miss counts on Target and CLogP.
func TestTargetVsCLogPSameCacheBehavior(t *testing.T) {
	f := func(seed int64) bool {
		const p = 4
		sigOf := func(kind Kind) string {
			s, a := newSpace(p)
			m := build(t, Config{Kind: kind, Topology: "cube"}, s)
			rng := rand.New(rand.NewSource(seed))
			run := driveOne(t, p, func(pr *sim.Proc, r *stats.Run) {
				for i := 0; i < 400; i++ {
					n := rng.Intn(p)
					idx := rng.Intn(a.N)
					if rng.Intn(3) == 0 {
						m.Write(pr, &r.Procs[n], n, a.At(idx))
					} else {
						m.Read(pr, &r.Procs[n], n, a.At(idx))
					}
				}
			})
			var sig string
			for n := 0; n < p; n++ {
				sig += fmt.Sprintf("%d/%d ", run.Procs[n].Hits, run.Procs[n].Misses)
			}
			return sig
		}
		return sigOf(Target) == sigOf(CLogP)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: on every machine, overhead buckets are non-negative and a
// run's reads+writes match what was issued.
func TestAccountingSanityProperty(t *testing.T) {
	f := func(seed int64) bool {
		const p = 4
		rng := rand.New(rand.NewSource(seed))
		kind := Kinds()[rng.Intn(len(Kinds()))]
		s, a := newSpace(p)
		m := build(t, Config{Kind: kind, Topology: "mesh"}, s)
		var reads, writes uint64
		run := driveOne(t, p, func(pr *sim.Proc, r *stats.Run) {
			for i := 0; i < 200; i++ {
				n := rng.Intn(p)
				idx := rng.Intn(a.N)
				if rng.Intn(2) == 0 {
					m.Write(pr, &r.Procs[n], n, a.At(idx))
					writes++
				} else {
					m.Read(pr, &r.Procs[n], n, a.At(idx))
					reads++
				}
			}
		})
		gotR := run.Count(func(q *stats.Proc) uint64 { return q.Reads })
		gotW := run.Count(func(q *stats.Proc) uint64 { return q.Writes })
		return gotR == reads && gotW == writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
