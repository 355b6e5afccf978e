package machine

import (
	"testing"

	"spasm/internal/mem"
	"spasm/internal/sim"
)

// TestAllMachinesConform runs the conformance suite over every machine
// kind, every topology, and every coherence protocol variant.
func TestAllMachinesConform(t *testing.T) {
	type variant struct {
		name string
		cfg  Config
	}
	var variants []variant
	for _, kind := range Kinds() {
		for _, topo := range []string{"full", "cube", "mesh", "ring", "torus"} {
			variants = append(variants, variant{
				name: kind.String() + "/" + topo,
				cfg:  Config{Kind: kind, Topology: topo},
			})
		}
	}
	variants = append(variants,
		variant{"target/msi", Config{Kind: Target, Topology: "cube", Protocol: 1}},
		variant{"target/update", Config{Kind: Target, Topology: "cube", Protocol: 2}},
		variant{"clogp/adaptive", Config{Kind: CLogP, Topology: "mesh", AdaptiveG: true}},
		variant{"logp/perclass", Config{Kind: LogP, Topology: "mesh", PortMode: 1}},
		variant{"target/fastlinks", Config{Kind: Target, Topology: "mesh", LinkByteTime: 4}},
	)
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			factory := func() (Machine, *mem.Space, *mem.Array) {
				s := mem.NewSpace(8, 32)
				a := s.Alloc("conf", 8*64, 8, mem.Blocked)
				cfg := v.cfg
				cfg.P = 8
				m, err := New(cfg, s)
				if err != nil {
					t.Fatal(err)
				}
				return m, s, a
			}
			if err := Conformance(factory); err != nil {
				t.Error(err)
			}
		})
	}
}

// networkTiers names each network tier by a machine that builds it, in
// increasing level of detail.
var networkTiers = []struct {
	name string
	kind Kind
}{{"flow", Flow}, {"logp", LogP}, {"clogp", CLogP}, {"detailed", Target}}

// TestNetworkTiersConform runs the network of every networked machine —
// detailed, logp, flow — through the same invariant checks (message
// conservation, monotone delivery, deterministic replay x2 plus a
// post-Reset replay, the observer contract), on every topology.
func TestNetworkTiersConform(t *testing.T) {
	for _, tier := range networkTiers {
		for _, topo := range []string{"full", "cube", "mesh", "ring", "torus"} {
			tier, topo := tier, topo
			t.Run(tier.name+"/"+topo, func(t *testing.T) {
				if err := NetworkConformance(tier.kind, topo, 8); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestLargePConformance re-runs the conformance battery at P=256 — past
// the precomputed-route-table limit, so the coherent machines exercise
// on-demand routing and the sparse directory's overflow representation,
// and each abstract tier its large-P port/flow state.  The mesh keeps
// the detailed fabric's link count linear in P.
func TestLargePConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor battery")
	}
	const p = 256
	for _, kind := range []Kind{Ideal, Flow, LogP, CLogP, Target} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			factory := func() (Machine, *mem.Space, *mem.Array) {
				s := mem.NewSpace(p, 32)
				a := s.Alloc("conf", p*64, 8, mem.Blocked)
				m, err := New(Config{Kind: kind, Topology: "mesh", P: p}, s)
				if err != nil {
					t.Fatal(err)
				}
				return m, s, a
			}
			if err := Conformance(factory); err != nil {
				t.Error(err)
			}
		})
	}
	for _, tier := range networkTiers {
		tier := tier
		t.Run("net/"+tier.name, func(t *testing.T) {
			if err := NetworkConformance(tier.kind, "mesh", p); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestFlowRebindClearsState: rebinding a pooled flow machine must clear
// the active-flow table — a leaked flow from the previous run would
// alias into the next run's bandwidth allocation.  The same access
// sequence is driven on a fresh machine and a rebound one; their
// delivery schedules must be identical.
func TestFlowRebindClearsState(t *testing.T) {
	drive := func(m Machine, s *mem.Space, a *mem.Array) string {
		net := m.(Backend).Network()
		var log string
		for i := 0; i < 40; i++ {
			dst := (i*3 + 1) % 8
			if dst == 0 {
				dst = 1
			}
			x := net.Xfer(sim.Time(i*10), 0, dst, 16)
			log += x.End.String() + ","
		}
		return log
	}
	setup := func() (*mem.Space, *mem.Array) {
		s := mem.NewSpace(8, 32)
		a := s.Alloc("conf", 8*64, 8, mem.Blocked)
		return s, a
	}
	s1, a1 := setup()
	fresh, err := New(Config{Kind: Flow, Topology: "mesh", P: 8}, s1)
	if err != nil {
		t.Fatal(err)
	}
	want := drive(fresh, s1, a1)

	s2, a2 := setup()
	m, err := New(Config{Kind: Flow, Topology: "mesh"}, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(m, s2, a2); got != want {
		t.Fatalf("first pooled run diverged:\n got %s\nwant %s", got, want)
	}
	// Rebind without the run in between having been "clean": the flow
	// table still holds the previous run's flows until Reset clears it.
	s3, a3 := setup()
	if err := Rebind(m, s3); err != nil {
		t.Fatal(err)
	}
	if got := drive(m, s3, a3); got != want {
		t.Fatalf("rebound run diverged from fresh:\n got %s\nwant %s", got, want)
	}
	// A machine keeps its node count.
	if err := Rebind(m, mem.NewSpace(4, 32)); err == nil {
		t.Fatal("rebound an 8-node machine to a 4-node space")
	}
}
