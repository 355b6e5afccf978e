package network

import (
	"slices"
	"testing"
	"testing/quick"
)

func extraTopologies(p int) []Topology {
	return []Topology{NewRing(p), NewTorus(p)}
}

func TestExtraRoutesValid(t *testing.T) {
	for _, p := range sizes {
		for _, topo := range extraTopologies(p) {
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

func TestExtraHopsWithinDiameter(t *testing.T) {
	for _, p := range sizes {
		for _, topo := range extraTopologies(p) {
			maxSeen := 0
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					h := topo.Hops(src, dst)
					if h < 1 || h > topo.Diameter() {
						t.Fatalf("%s(%d): hops(%d,%d) = %d, diameter %d",
							topo.Name(), p, src, dst, h, topo.Diameter())
					}
					if h > maxSeen {
						maxSeen = h
					}
				}
			}
			if maxSeen != topo.Diameter() {
				t.Errorf("%s(%d): max hops %d != diameter %d",
					topo.Name(), p, maxSeen, topo.Diameter())
			}
		}
	}
}

func TestRingProperties(t *testing.T) {
	r := NewRing(8)
	if r.Diameter() != 4 {
		t.Errorf("diameter = %d", r.Diameter())
	}
	if r.Hops(0, 1) != 1 || r.Hops(0, 7) != 1 || r.Hops(0, 4) != 4 {
		t.Error("ring hops wrong")
	}
	// Shorter-way routing: 0 -> 6 goes counter-clockwise (2 hops).
	route := r.Route(0, 6)
	if len(route) != 2 || route[0]%2 != ccw {
		t.Errorf("route(0,6) = %v", route)
	}
	if r.BisectionLinks() != 4 {
		t.Errorf("bisection = %d", r.BisectionLinks())
	}
	if !r.CrossesBisection(0, 4) || r.CrossesBisection(0, 1) {
		t.Error("ring bisection predicate wrong")
	}
}

func TestRingOfTwo(t *testing.T) {
	r := NewRing(2)
	if r.BisectionLinks() != 2 || r.Diameter() != 1 {
		t.Errorf("ring(2): bisection %d diameter %d", r.BisectionLinks(), r.Diameter())
	}
	routeIsValid(t, r, 0, 1)
	routeIsValid(t, r, 1, 0)
}

func TestTorusProperties(t *testing.T) {
	tor := NewTorus(16) // 4x4
	if tor.rows != 4 || tor.cols != 4 {
		t.Fatalf("torus(16) = %dx%d", tor.rows, tor.cols)
	}
	if tor.Diameter() != 4 {
		t.Errorf("diameter = %d", tor.Diameter())
	}
	// Wraparound shortens the mesh's corner-to-corner route.
	m := NewMesh(16)
	if tor.Hops(0, 15) >= m.Hops(0, 15) {
		t.Errorf("torus hops %d not below mesh %d", tor.Hops(0, 15), m.Hops(0, 15))
	}
	if tor.Hops(0, 3) != 1 { // wraps west
		t.Errorf("hops(0,3) = %d", tor.Hops(0, 3))
	}
	if tor.BisectionLinks() != 16 { // 4 * rows
		t.Errorf("bisection = %d", tor.BisectionLinks())
	}
}

func TestTorusDegenerateTwoColumns(t *testing.T) {
	tor := NewTorus(4) // 2x2: wrap and cut coincide
	if tor.BisectionLinks() != 4 {
		t.Errorf("torus(4) bisection = %d", tor.BisectionLinks())
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s != d {
				routeIsValid(t, tor, s, d)
			}
		}
	}
}

func TestTorusMeanRouteShorterThanMesh(t *testing.T) {
	// The torus's whole point: wraparound halves average distance.
	for _, p := range []int{16, 64} {
		tor, m := NewTorus(p), NewMesh(p)
		sum := func(topo Topology) int {
			total := 0
			for s := 0; s < p; s++ {
				for d := 0; d < p; d++ {
					if s != d {
						total += topo.Hops(s, d)
					}
				}
			}
			return total
		}
		if sum(tor) >= sum(m) {
			t.Errorf("p=%d: torus total distance not below mesh", p)
		}
	}
}

func TestNewExtendedNames(t *testing.T) {
	for _, name := range Names() {
		topo, err := New(name, 8)
		if err != nil || topo.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, topo, err)
		}
	}
	if len(Names()) != 5 {
		t.Errorf("Names() = %v", Names())
	}
}

func TestExtraBadInputsPanic(t *testing.T) {
	mustPanicT(t, func() { NewRing(3) })
	mustPanicT(t, func() { NewTorus(0) })
	r := NewRing(8)
	mustPanicT(t, func() { r.Route(2, 2) })
	tor := NewTorus(8)
	mustPanicT(t, func() { tor.Route(-1, 2) })
}

// Property: torus routes never exceed (cols/2 + rows/2) links and ring
// routes never exceed p/2.
func TestExtraRouteBoundsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := sizes[int(seed%uint64(len(sizes)))]
		r := NewRing(p)
		tor := NewTorus(p)
		for s := 0; s < p; s++ {
			d := (s + 1 + int((seed>>3)%uint64(p-1))) % p
			if d == s {
				continue
			}
			if len(r.Route(s, d)) > p/2 {
				return false
			}
			if len(tor.Route(s, d)) > tor.rows/2+tor.cols/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The route generators as they were before the link id was stepped
// incrementally — a modulo and a node(r, c) multiply per hop — kept as the
// reference the stepped ones must reproduce.
func refRingRoute(r *Ring, buf []int, src, dst int) []int {
	fwd := (dst - src + r.p) % r.p
	if fwd <= r.p-fwd { // clockwise (ties clockwise)
		for n := src; n != dst; n = (n + 1) % r.p {
			buf = append(buf, n*2+cw)
		}
	} else {
		for n := src; n != dst; n = (n - 1 + r.p) % r.p {
			buf = append(buf, n*2+ccw)
		}
	}
	return buf
}

func refShorter(a, b, n int) (step, dist int) {
	fwd := (b - a + n) % n
	if fwd <= n-fwd {
		return 1, fwd
	}
	return -1, n - fwd
}

func refTorusRoute(t *Torus, buf []int, src, dst int) []int {
	sr, sc := t.coords(src)
	dr, dc := t.coords(dst)
	r, c := sr, sc
	if step, dist := refShorter(sc, dc, t.cols); dist > 0 {
		for i := 0; i < dist; i++ {
			if step > 0 {
				buf = append(buf, t.node(r, c)*4+east)
				c = (c + 1) % t.cols
			} else {
				buf = append(buf, t.node(r, c)*4+west)
				c = (c - 1 + t.cols) % t.cols
			}
		}
	}
	if step, dist := refShorter(sr, dr, t.rows); dist > 0 {
		for i := 0; i < dist; i++ {
			if step > 0 {
				buf = append(buf, t.node(r, c)*4+south)
				r = (r + 1) % t.rows
			} else {
				buf = append(buf, t.node(r, c)*4+north)
				r = (r - 1 + t.rows) % t.rows
			}
		}
	}
	return buf
}

func refMeshRoute(m *Mesh, buf []int, src, dst int) []int {
	sr, sc := m.coords(src)
	dr, dc := m.coords(dst)
	r, c := sr, sc
	for c < dc {
		buf = append(buf, m.node(r, c)*4+east)
		c++
	}
	for c > dc {
		buf = append(buf, m.node(r, c)*4+west)
		c--
	}
	for r < dr {
		buf = append(buf, m.node(r, c)*4+south)
		r++
	}
	for r > dr {
		buf = append(buf, m.node(r, c)*4+north)
		r--
	}
	return buf
}

// TestSteppedRoutesMatchReference compares every (src, dst) route of the
// ring, the torus and the mesh against the reference generators, at a
// square shape, a two-to-one shape and the first P served by
// AppendRoute instead of the route table (the ring, whose routes are
// hundreds of hops there, from every 93rd source).
func TestSteppedRoutesMatchReference(t *testing.T) {
	for _, p := range []int{2, 8, 16, 64, 1024} {
		ring, torus, mesh := NewRing(p), NewTorus(p), NewMesh(p)
		for _, tc := range []struct {
			name      string
			got, want func(buf []int, src, dst int) []int
		}{
			{"ring", ring.AppendRoute, func(b []int, s, d int) []int { return refRingRoute(ring, b, s, d) }},
			{"torus", torus.AppendRoute, func(b []int, s, d int) []int { return refTorusRoute(torus, b, s, d) }},
			{"mesh", mesh.AppendRoute, func(b []int, s, d int) []int { return refMeshRoute(mesh, b, s, d) }},
		} {
			stride := 1
			if tc.name == "ring" && p > 64 {
				stride = 93
			}
			var got, want []int
			for src := 0; src < p; src += stride {
				for dst := 0; dst < p; dst++ {
					if src == dst {
						continue
					}
					got, want = tc.got(got[:0], src, dst), tc.want(want[:0], src, dst)
					if !slices.Equal(got, want) {
						t.Fatalf("%s(%d) %d->%d: route %v, reference %v", tc.name, p, src, dst, got, want)
					}
				}
			}
		}
	}
}
