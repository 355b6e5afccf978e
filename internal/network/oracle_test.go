package network

import (
	"fmt"
	"math/bits"
)

// The route oracles.  No simulation asks a topology for a distance or for
// a link's endpoints, so Hops and LinkEnds live here: the tests check
// every route against them, walking its links from src to dst and
// counting them against the coordinate distance.

// oracle is a topology with the views the route checks read beside
// Topology's five methods.
type oracle interface {
	Topology
	AppendRoute(buf []int, src, dst int) []int
	Diameter() int
	// Hops returns the routing distance from src to dst.
	Hops(src, dst int) int
	// LinkEnds returns the endpoints of directed link id.
	LinkEnds(id int) (from, to int)
}

// String names a topology in test messages as "mesh(16)".
func (r *router) String() string { return fmt.Sprintf("%s(%d)", r.name, r.p) }

func (f *Full) Hops(src, dst int) int          { f.check(src, dst); return 1 }
func (f *Full) LinkEnds(id int) (from, to int) { return id / f.p, id % f.p }

func (c *Cube) Hops(src, dst int) int {
	c.check(src, dst)
	return bits.OnesCount(uint(src ^ dst))
}

func (c *Cube) LinkEnds(id int) (from, to int) {
	from = id / c.dims
	d := id % c.dims
	return from, from ^ (1 << d)
}

func (m *Mesh) Hops(src, dst int) int {
	m.check(src, dst)
	sr, sc := m.coords(src)
	dr, dc := m.coords(dst)
	return abs(sr-dr) + abs(sc-dc)
}

func (m *Mesh) LinkEnds(id int) (from, to int) {
	from = id / 4
	r, c := m.coords(from)
	switch id % 4 {
	case east:
		c++
	case west:
		c--
	case north:
		r--
	default:
		r++
	}
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("network: link %d leaves the mesh", id))
	}
	return from, m.node(r, c)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (r *Ring) Hops(src, dst int) int {
	r.check(src, dst)
	_, dist := shorter(src, dst, r.p)
	return dist
}

func (r *Ring) LinkEnds(id int) (from, to int) {
	from = id / 2
	if id%2 == cw {
		return from, (from + 1) % r.p
	}
	return from, (from - 1 + r.p) % r.p
}

func (t *Torus) Hops(src, dst int) int {
	t.check(src, dst)
	sr, sc := t.coords(src)
	dr, dc := t.coords(dst)
	_, dx := shorter(sc, dc, t.cols)
	_, dy := shorter(sr, dr, t.rows)
	return dx + dy
}

func (t *Torus) LinkEnds(id int) (from, to int) {
	from = id / 4
	r, c := t.coords(from)
	switch id % 4 {
	case east:
		c = (c + 1) % t.cols
	case west:
		c = (c - 1 + t.cols) % t.cols
	case north:
		r = (r - 1 + t.rows) % t.rows
	default:
		r = (r + 1) % t.rows
	}
	return from, t.node(r, c)
}
