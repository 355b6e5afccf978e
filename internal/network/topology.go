// Package network models the target machine's interconnection networks:
// the fully connected network, the binary hypercube, and the 2-D mesh of
// the paper's architectural characterization.  All three use serial
// (1-bit wide) unidirectional links of 20 MB/s; messages are
// circuit-switched with wormhole routing, and switching delay is
// negligible (ignored), exactly as in the paper.
//
// The Fabric type implements the contention model: a message reserves its
// source injection port, every link on its deterministic route, and its
// destination ejection port for the duration of the transmission.  Time
// spent waiting for those resources is the *contention* overhead; the
// transmission time itself is the *latency* overhead.
package network

import (
	"fmt"
	"math/bits"
)

// Topology describes a point-to-point interconnection network over P
// nodes with deterministic routing: what the detailed fabric, the flow
// tier and the g derivation read of a network.
type Topology interface {
	// P returns the number of nodes.
	P() int
	// NumLinks returns the size of the directed-link id space (some
	// ids may be unused on irregular topologies).
	NumLinks() int
	// Route returns the directed links a message from src to dst
	// traverses, in order.  src must differ from dst.  The returned
	// slice may alias a precomputed route table shared by all callers
	// (p <= RouteTableMaxP) or the topology's reusable scratch buffer
	// (larger p); it must not be modified in place, and above
	// RouteTableMaxP it is only valid until the next Route call on the
	// same topology — callers that hold routes across calls must copy.
	Route(src, dst int) []int
	// BisectionLinks returns the number of directed links crossing the
	// network bisection, counting both directions.  It is the quantity
	// the paper's g-parameter derivation uses.
	BisectionLinks() int
	// CrossesBisection reports whether a message from src to dst
	// crosses the bisection cut used by BisectionLinks.  The adaptive
	// g estimator uses it to measure an application's communication
	// locality.
	CrossesBisection(src, dst int) bool
}

// CheckP is the one processor-count rule of every topology: the paper's
// platforms take a power of two, at least 2.  New reports a violation as
// an error, the New* constructors as a panic.
func CheckP(p int) error {
	if p < 2 || p&(p-1) != 0 {
		return fmt.Errorf("network: p = %d must be a power of two >= 2", p)
	}
	return nil
}

// router is the route front end every topology embeds: the family name
// and P a bad route's panic names, and Route, served from the route
// table (p <= RouteTableMaxP) or computed by the topology's AppendRoute
// into a scratch buffer as long as its diameter, so neither allocates.
type router struct {
	name    string
	p       int
	rt      *routeTable
	compute appendRouter
	scratch []int
}

// newRouter checks p and names the topology; build completes it once the
// topology's geometry is set.
func newRouter(name string, p int) router {
	if err := CheckP(p); err != nil {
		panic(err.Error())
	}
	return router{name: name, p: p}
}

// build installs the routing function, whose routes are at most diameter
// links long, and the table or the scratch buffer it serves from.
func (r *router) build(compute appendRouter, diameter int) {
	r.compute = compute
	if r.rt = buildRouteTable(r.p, diameter, compute); r.rt == nil {
		r.scratch = make([]int, 0, diameter)
	}
}

func (r *router) P() int { return r.p }

// Route serves every topology's Topology.Route: from the table, or
// computed into the scratch buffer above RouteTableMaxP.
func (r *router) Route(src, dst int) []int {
	r.check(src, dst)
	if r.rt != nil {
		return r.rt.route(src, dst)
	}
	r.scratch = r.compute(r.scratch[:0], src, dst)
	return r.scratch
}

func (r *router) check(src, dst int) {
	if src < 0 || src >= r.p || dst < 0 || dst >= r.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on %s(%d)", src, dst, r.name, r.p))
	}
}

// Full is the fully connected network: two serial links (one per
// direction) between every pair of nodes.
type Full struct{ router }

// NewFull returns a fully connected network over p nodes.
func NewFull(p int) *Full {
	f := &Full{newRouter("full", p)}
	f.build(f.AppendRoute, f.Diameter())
	return f
}

func (f *Full) NumLinks() int { return f.p * f.p }

// AppendRoute: the direct link src→dst.
func (f *Full) AppendRoute(buf []int, src, dst int) []int {
	return append(buf, src*f.p+dst)
}

func (f *Full) Diameter() int { return 1 }

// BisectionLinks counts the links between the two halves in both
// directions: 2 * (p/2)^2.
func (f *Full) BisectionLinks() int { return 2 * (f.p / 2) * (f.p / 2) }

// CrossesBisection splits the node set at p/2.
func (f *Full) CrossesBisection(src, dst int) bool {
	return (src < f.p/2) != (dst < f.p/2)
}

// Cube is the binary hypercube: each edge of the cube has a link in each
// direction, and routing is dimension-ordered (e-cube).
type Cube struct {
	router
	dims int
}

// NewCube returns a binary hypercube over p = 2^k nodes.
func NewCube(p int) *Cube {
	c := &Cube{newRouter("cube", p), bits.TrailingZeros(uint(p))}
	c.build(c.AppendRoute, c.Diameter())
	return c
}

func (c *Cube) NumLinks() int { return c.p * c.dims }

// AppendRoute applies e-cube routing: correct differing address bits
// from least to most significant.  Link node*dims+d runs from node to
// node^(1<<d).
func (c *Cube) AppendRoute(buf []int, src, dst int) []int {
	cur := src
	for d := 0; d < c.dims; d++ {
		if (cur^dst)&(1<<d) != 0 {
			buf = append(buf, cur*c.dims+d)
			cur ^= 1 << d
		}
	}
	return buf
}

func (c *Cube) Diameter() int { return c.dims }

// BisectionLinks: splitting on the most significant address bit cuts one
// link per node, i.e. p directed links counting both directions.
func (c *Cube) BisectionLinks() int { return c.p }

// CrossesBisection splits on the most significant address bit.
func (c *Cube) CrossesBisection(src, dst int) bool {
	msb := c.p / 2
	return (src&msb != 0) != (dst&msb != 0)
}

// grid is the node layout the mesh and the torus share, numbered
// row-major: for p an even power of two it is square; otherwise it has
// twice as many columns as rows.
type grid struct{ rows, cols int }

func newGrid(p int) grid {
	rows := 1 << (bits.TrailingZeros(uint(p)) / 2)
	return grid{rows, p / rows}
}

func (g grid) node(r, c int) int       { return r*g.cols + c }
func (g grid) coords(n int) (r, c int) { return n / g.cols, n % g.cols }

// Directions for mesh and torus link ids: link id = node*4 + direction.
const (
	east = iota
	west
	north
	south
)

// Mesh is the 2-D mesh of the paper (the Intel Touchstone Delta shape):
// nodes in the interior have North/South/East/West neighbours; edges and
// corners have fewer.  Routing is X-first (along the row to the
// destination column, then along the column).
type Mesh struct {
	router
	grid
}

// NewMesh returns the 2-D mesh over p = 2^k nodes with the paper's
// aspect-ratio rule.
func NewMesh(p int) *Mesh {
	m := &Mesh{newRouter("mesh", p), newGrid(p)}
	m.build(m.AppendRoute, m.Diameter())
	return m
}

func (m *Mesh) Cols() int     { return m.cols }
func (m *Mesh) NumLinks() int { return m.p * 4 }

// AppendRoute is X-first dimension-ordered: travel east/west to the
// target column, then north/south to the target row.  A link id is
// node*4+direction, so a hop along a row moves the id by 4 and a hop
// along a column by a row of them.
func (m *Mesh) AppendRoute(buf []int, src, dst int) []int {
	sr, sc := m.coords(src)
	dr, dc := m.coords(dst)
	id, row := src*4, m.cols*4
	for ; sc < dc; sc++ {
		buf = append(buf, id+east)
		id += 4
	}
	for ; sc > dc; sc-- {
		buf = append(buf, id+west)
		id -= 4
	}
	for ; sr < dr; sr++ {
		buf = append(buf, id+south)
		id += row
	}
	for ; sr > dr; sr-- {
		buf = append(buf, id+north)
		id -= row
	}
	return buf
}

func (m *Mesh) Diameter() int { return m.rows - 1 + m.cols - 1 }

// BisectionLinks: cutting between the two column halves severs one link
// per row in each direction: 2 * rows.
func (m *Mesh) BisectionLinks() int { return 2 * m.rows }

// CrossesBisection splits between the two column halves.
func (m *Mesh) CrossesBisection(src, dst int) bool {
	_, sc := m.coords(src)
	_, dc := m.coords(dst)
	return (sc < m.cols/2) != (dc < m.cols/2)
}

// New returns the named topology over p nodes: the paper's "full",
// "cube" and "mesh", plus the extension topologies "ring" and "torus".
func New(name string, p int) (Topology, error) {
	if err := CheckP(p); err != nil {
		return nil, err
	}
	switch name {
	case "full":
		return NewFull(p), nil
	case "cube":
		return NewCube(p), nil
	case "mesh":
		return NewMesh(p), nil
	case "ring":
		return NewRing(p), nil
	case "torus":
		return NewTorus(p), nil
	}
	return nil, fmt.Errorf("network: unknown topology %q", name)
}

// Names lists the available topologies, the paper's three first.
func Names() []string { return []string{"full", "cube", "mesh", "ring", "torus"} }
