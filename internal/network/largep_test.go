package network

import (
	"testing"

	"spasm/internal/sim"
)

// Large-P routing: above RouteTableMaxP there is no precomputed table —
// Route computes into the topology's scratch buffer and the fabric
// consumes it within one Reserve call.  These tests pin two properties
// of that path: it agrees with the AppendRoute oracle, and it never
// allocates per message.

// largeTopos builds all five topologies at p.
func largeTopos(p int) []Topology {
	return []Topology{NewFull(p), NewCube(p), NewMesh(p), NewRing(p), NewTorus(p)}
}

// TestLargePRouteMatchesOracle cross-checks Route against the
// AppendRoute oracle for every topology at and above the table limit.
// p=128 exercises the last table-backed size, 256 and 1024 the scratch
// path; pairs are strided to keep the sweep fast at p=1024.
func TestLargePRouteMatchesOracle(t *testing.T) {
	for _, p := range []int{128, 256, 1024} {
		for _, topo := range largeTopos(p) {
			stride := 1
			if p > 128 {
				stride = p / 64
			}
			for src := 0; src < p; src += stride {
				for dst := 0; dst < p; dst += stride + 1 {
					if src == dst {
						continue
					}
					got := topo.Route(src, dst)
					want := topo.AppendRoute(nil, src, dst)
					if len(got) != len(want) {
						t.Fatalf("%s(%d) route %d->%d: Route %v != oracle %v",
							topo.Name(), p, src, dst, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s(%d) route %d->%d: Route %v != oracle %v",
								topo.Name(), p, src, dst, got, want)
						}
					}
					// The route must also be link-consistent: a walk
					// over LinkEnds from src arrives at dst.
					cur := src
					for _, l := range got {
						from, to := topo.LinkEnds(l)
						if from != cur {
							t.Fatalf("%s(%d) route %d->%d: link %d starts at %d, not %d",
								topo.Name(), p, src, dst, l, from, cur)
						}
						cur = to
					}
					if cur != dst {
						t.Fatalf("%s(%d) route %d->%d ends at %d", topo.Name(), p, src, dst, cur)
					}
				}
			}
		}
	}
}

// TestLargePRouteZeroAllocs pins the scratch path: Route above
// RouteTableMaxP must not allocate per call at any p.
func TestLargePRouteZeroAllocs(t *testing.T) {
	for _, p := range []int{256, 1024} {
		for _, topo := range largeTopos(p) {
			topo := topo
			var sink []int
			allocs := testing.AllocsPerRun(100, func() {
				for src := 0; src < p; src += 61 {
					dst := (src + p/2 + 1) % p
					sink = topo.Route(src, dst)
				}
			})
			if allocs != 0 {
				t.Errorf("%s(%d).Route allocates %.1f times per sweep; want 0",
					topo.Name(), p, allocs)
			}
			_ = sink
		}
	}
}

// TestLargePReserveZeroAllocs pins the fabric's large-P hot path:
// routing on demand into the topology's scratch buffer, Reserve must
// stay allocation-free per message at p=256 and p=1024 (the warm-up
// pass grows the touched-link list; steady state repeats the same
// working set, as coherence traffic does).
func TestLargePReserveZeroAllocs(t *testing.T) {
	for _, p := range []int{256, 1024} {
		for _, mk := range []func(int) Topology{
			func(p int) Topology { return NewCube(p) },
			func(p int) Topology { return NewMesh(p) },
			func(p int) Topology { return NewTorus(p) },
		} {
			topo := mk(p)
			f := NewFabric(topo)
			now := sim.Time(0)
			allocs := testing.AllocsPerRun(100, func() {
				for src := 0; src < p; src += 17 {
					dst := (src + 13) % p
					x := f.Reserve(now, src, dst, 32)
					now = x.End
				}
			})
			if allocs != 0 {
				t.Errorf("Reserve on %s(%d) allocates %.1f times per sweep; want 0",
					topo.Name(), p, allocs)
			}
		}
	}
}
