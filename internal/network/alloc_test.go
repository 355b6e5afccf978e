package network

import (
	"runtime"
	"testing"

	"spasm/internal/sim"
)

// The fabric sits on the innermost simulation loop: every shared-memory
// miss and every message-passing send reserves a circuit.  These tests
// pin the zero-allocation property of that path so a regression (say, a
// route that escapes to the heap again) fails loudly instead of showing
// up as a 30% slowdown in a benchmark someone has to bisect.

func TestRouteZeroAllocs(t *testing.T) {
	const p = 64
	for _, name := range Names() {
		topo, _ := New(name, p)
		t.Run(name, func(t *testing.T) {
			var sink []int
			allocs := testing.AllocsPerRun(100, func() {
				for src := 0; src < p; src += 7 {
					for dst := 0; dst < p; dst += 5 {
						if src != dst {
							sink = topo.Route(src, dst)
						}
					}
				}
			})
			if allocs != 0 {
				t.Errorf("%v.Route allocates %.1f times per sweep; want 0", topo, allocs)
			}
			_ = sink
		})
	}
}

func TestReserveZeroAllocs(t *testing.T) {
	const p = 64
	for _, name := range Names()[:3] { // the paper's three
		topo, _ := New(name, p)
		t.Run(name, func(t *testing.T) {
			f := NewFabric(topo)
			now := sim.Time(0)
			allocs := testing.AllocsPerRun(100, func() {
				for src := 0; src < p; src += 7 {
					dst := (src + 13) % p
					x := f.Reserve(now, src, dst, 32)
					now = x.End
				}
			})
			if allocs != 0 {
				t.Errorf("Reserve on %v allocates %.1f times per sweep; want 0", topo, allocs)
			}
		})
	}
}

// TestReserveDegradedZeroAllocs covers the degraded-fabric path: the
// per-link factor array must not reintroduce allocations (the old
// map-based scan did not allocate either, but the array must stay that
// way as it evolves).
func TestReserveDegradedZeroAllocs(t *testing.T) {
	const p = 16
	topo := NewMesh(p)
	f := NewFabric(topo)
	f.Degrade(0, 4)
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(100, func() {
		for src := 0; src < p; src++ {
			dst := (src + 3) % p
			x := f.Reserve(now, src, dst, 32)
			now = x.End
		}
	})
	if allocs != 0 {
		t.Errorf("Reserve on degraded fabric allocates %.1f times per sweep; want 0", allocs)
	}
}

// TestRouteTableMatchesCompute cross-checks every precomputed route
// against the compute-on-demand form it was built from, for all
// topologies at several sizes.
func TestRouteTableMatchesCompute(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16, 64} {
		topos := []oracle{NewFull(p), NewCube(p), NewMesh(p), NewRing(p), NewTorus(p)}
		for _, topo := range topos {
			compute := topo.AppendRoute
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					got := topo.Route(src, dst)
					want := compute(nil, src, dst)
					if len(got) != len(want) {
						t.Fatalf("%v route %d->%d: table %v != compute %v",
							topo, src, dst, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v route %d->%d: table %v != compute %v",
								topo, src, dst, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRouteTableAppendSafe verifies the cap-clipping contract: a caller
// that appends to a returned route must get a copy, not clobber the
// neighbouring route in the shared arena.
func TestRouteTableAppendSafe(t *testing.T) {
	m := NewMesh(16)
	r1 := m.Route(0, 5)
	neighbour := append([]int(nil), m.Route(0, 6)...)
	_ = append(r1, -1) // must copy, not write into the arena
	got := m.Route(0, 6)
	for i := range neighbour {
		if got[i] != neighbour[i] {
			t.Fatalf("append to route 0->5 clobbered route 0->6: %v != %v", got, neighbour)
		}
	}
}

// TestRouteTableAllocBound pins what building a table-backed topology
// allocates: the arena and the offsets at their final sizes, plus a few
// small headers.  An arena grown by appending costs about five times its
// size, and a topology that builds another one to learn its shape costs
// that table again.
func TestRouteTableAllocBound(t *testing.T) {
	const slack = 16 << 10
	for _, p := range []int{64, 128} {
		for _, name := range Names() {
			var spent uint64
			var topo Topology
			for try := 0; try < 3; try++ { // the least of three, past any stray allocation
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				topo, _ = New(name, p)
				runtime.ReadMemStats(&after)
				if n := after.TotalAlloc - before.TotalAlloc; try == 0 || n < spent {
					spent = n
				}
			}
			links := 0
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src != dst {
						links += len(topo.Route(src, dst))
					}
				}
			}
			if need := uint64(8*links + 4*(p*p+1)); spent > need+slack {
				t.Errorf("%s(%d) allocates %d B for a %d-link arena and its offsets (%d B); want at most %d B",
					name, p, spent, links, need, need+slack)
			}
		}
	}
}

// TestWhichTopologiesTable: up to RouteTableMaxP every topology keeps a
// route table except the ring from p64 on, whose routes average about
// p/4 links; it routes through its scratch buffer instead.
func TestWhichTopologiesTable(t *testing.T) {
	for p := 2; p <= RouteTableMaxP; p *= 2 {
		for _, name := range Names() {
			topo, _ := New(name, p)
			var rt *routeTable
			switch x := topo.(type) {
			case *Full:
				rt = x.rt
			case *Cube:
				rt = x.rt
			case *Mesh:
				rt = x.rt
			case *Ring:
				rt = x.rt
			case *Torus:
				rt = x.rt
			default:
				t.Fatalf("%s: unknown topology type %T", name, topo)
			}
			if want := !(name == "ring" && p >= 64); (rt != nil) != want {
				t.Errorf("%s(%d): route table kept = %v, want %v", name, p, rt != nil, want)
			}
		}
	}
}
