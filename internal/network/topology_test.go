package network

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

var sizes = []int{2, 4, 8, 16, 32, 64}

func topologies(p int) []oracle {
	return []oracle{NewFull(p), NewCube(p), NewMesh(p)}
}

// routeIsValid checks that a route's links connect src to dst link by link.
func routeIsValid(t *testing.T, topo oracle, src, dst int) {
	t.Helper()
	route := topo.Route(src, dst)
	if len(route) != topo.Hops(src, dst) {
		t.Fatalf("%v: route %d->%d has %d links, Hops says %d",
			topo, src, dst, len(route), topo.Hops(src, dst))
	}
	cur := src
	for _, l := range route {
		from, to := topo.LinkEnds(l)
		if from != cur {
			t.Fatalf("%v: route %d->%d link %d starts at %d, expected %d",
				topo, src, dst, l, from, cur)
		}
		cur = to
	}
	if cur != dst {
		t.Fatalf("%v: route %d->%d ends at %d", topo, src, dst, cur)
	}
}

// TestNewRejectsUnsupportedP: New reports the processor-count rule as an
// error for every topology instead of panicking.
func TestNewRejectsUnsupportedP(t *testing.T) {
	for _, name := range Names() {
		for _, p := range []int{-2, 0, 1, 3, 6, 12} {
			if _, err := New(name, p); err == nil || err.Error() != CheckP(p).Error() {
				t.Errorf("New(%q, %d) = %v, want %v", name, p, err, CheckP(p))
			}
		}
		if _, err := New(name, 8); err != nil {
			t.Errorf("New(%q, 8): %v", name, err)
		}
	}
}

func TestAllRoutesValid(t *testing.T) {
	for _, p := range sizes {
		for _, topo := range topologies(p) {
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					routeIsValid(t, topo, src, dst)
				}
			}
		}
	}
}

func TestHopsWithinDiameter(t *testing.T) {
	for _, p := range sizes {
		for _, topo := range topologies(p) {
			maxSeen := 0
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					h := topo.Hops(src, dst)
					if h < 1 || h > topo.Diameter() {
						t.Fatalf("%v: hops(%d,%d) = %d, diameter %d",
							topo, src, dst, h, topo.Diameter())
					}
					if h > maxSeen {
						maxSeen = h
					}
				}
			}
			if maxSeen != topo.Diameter() {
				t.Errorf("%v: max hops %d != diameter %d",
					topo, maxSeen, topo.Diameter())
			}
		}
	}
}

func TestFullProperties(t *testing.T) {
	f := NewFull(8)
	if f.Diameter() != 1 {
		t.Error("full diameter != 1")
	}
	if f.BisectionLinks() != 2*4*4 {
		t.Errorf("full(8) bisection = %d, want 32", f.BisectionLinks())
	}
	// distinct pairs use distinct links
	seen := map[int]bool{}
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			r := f.Route(s, d)
			if len(r) != 1 || seen[r[0]] {
				t.Fatalf("full route %d->%d = %v reused", s, d, r)
			}
			seen[r[0]] = true
		}
	}
}

func TestCubeProperties(t *testing.T) {
	c := NewCube(16)
	if c.dims != 4 || c.Diameter() != 4 {
		t.Errorf("cube(16) dims=%d diameter=%d", c.dims, c.Diameter())
	}
	if c.BisectionLinks() != 16 {
		t.Errorf("cube(16) bisection = %d, want 16", c.BisectionLinks())
	}
	if c.Hops(0, 15) != 4 {
		t.Errorf("hops(0,15) = %d", c.Hops(0, 15))
	}
	if c.Hops(5, 4) != 1 {
		t.Errorf("hops(5,4) = %d", c.Hops(5, 4))
	}
	// e-cube: lowest differing dimension first
	r := c.Route(0, 6) // 0 -> 2 -> 6 fixing bit1 then bit2
	if len(r) != 2 {
		t.Fatalf("route(0,6) = %v", r)
	}
	_, mid := c.LinkEnds(r[0])
	if mid != 2 {
		t.Errorf("e-cube first hop to %d, want 2", mid)
	}
}

func TestMeshShapes(t *testing.T) {
	cases := []struct{ p, rows, cols int }{
		{2, 1, 2}, {4, 2, 2}, {8, 2, 4}, {16, 4, 4}, {32, 4, 8}, {64, 8, 8},
	}
	for _, c := range cases {
		m := NewMesh(c.p)
		if m.rows != c.rows || m.cols != c.cols {
			t.Errorf("mesh(%d) = %dx%d, want %dx%d", c.p, m.rows, m.cols, c.rows, c.cols)
		}
		if got := m.BisectionLinks(); got != 2*c.rows {
			t.Errorf("mesh(%d) bisection = %d, want %d", c.p, got, 2*c.rows)
		}
		if got := m.Diameter(); got != c.rows+c.cols-2 {
			t.Errorf("mesh(%d) diameter = %d", c.p, got)
		}
	}
}

func TestMeshXYRouting(t *testing.T) {
	m := NewMesh(16) // 4x4
	// 0 (0,0) -> 15 (3,3): east 3 then south 3
	r := m.Route(0, 15)
	if len(r) != 6 {
		t.Fatalf("route(0,15) len %d", len(r))
	}
	for i := 0; i < 3; i++ {
		if r[i]%4 != east {
			t.Errorf("hop %d not east", i)
		}
	}
	for i := 3; i < 6; i++ {
		if r[i]%4 != south {
			t.Errorf("hop %d not south", i)
		}
	}
}

func TestMeshCornerDegrees(t *testing.T) {
	m := NewMesh(16)
	// Corner node 0 should only have east and south outgoing links that
	// stay in the mesh; LinkEnds must panic on the others.
	mustPanicT(t, func() { m.LinkEnds(0*4 + west) })
	mustPanicT(t, func() { m.LinkEnds(0*4 + north) })
	if from, to := m.LinkEnds(0*4 + east); from != 0 || to != 1 {
		t.Errorf("east link of 0 = %d->%d", from, to)
	}
	if from, to := m.LinkEnds(0*4 + south); from != 0 || to != 4 {
		t.Errorf("south link of 0 = %d->%d", from, to)
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"full", "cube", "mesh"} {
		topo, err := New(name, 8)
		if err != nil || fmt.Sprint(topo) != name+"(8)" {
			t.Errorf("New(%q) = %v, %v", name, topo, err)
		}
	}
	if _, err := New("omega", 8); err == nil {
		t.Error("New(omega) should fail")
	}
}

func TestBadPPanics(t *testing.T) {
	for _, p := range []int{0, 1, 3, 6, 100} {
		mustPanicT(t, func() { NewFull(p) })
		mustPanicT(t, func() { NewCube(p) })
		mustPanicT(t, func() { NewMesh(p) })
	}
}

func TestRouteSelfPanics(t *testing.T) {
	for _, topo := range topologies(8) {
		topo := topo
		mustPanicT(t, func() { topo.Route(3, 3) })
		mustPanicT(t, func() { topo.Route(-1, 3) })
		mustPanicT(t, func() { topo.Route(0, 8) })
	}
}

// Property: routes obey the triangle equality for dimension-ordered
// routing — hops(s,d) equals the coordinate distance, and every link id
// on any route is within NumLinks.
func TestRouteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := sizes[rng.Intn(len(sizes))]
		for _, topo := range topologies(p) {
			src := rng.Intn(p)
			dst := rng.Intn(p)
			if src == dst {
				continue
			}
			for _, l := range topo.Route(src, dst) {
				if l < 0 || l >= topo.NumLinks() {
					return false
				}
				from, to := topo.LinkEnds(l)
				if from == to {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustPanicT(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
