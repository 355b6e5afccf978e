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
// nodes with deterministic routing.
type Topology interface {
	// Name identifies the topology family: "full", "cube" or "mesh".
	Name() string
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
	// same topology — callers that hold routes across calls must copy,
	// or use AppendRoute with their own buffer.
	Route(src, dst int) []int
	// AppendRoute appends the links of the src→dst route to buf and
	// returns the extended slice: the allocation-free routing primitive
	// Route itself is built on.  A route is never longer than
	// Diameter(), so a buffer with that capacity never grows.
	AppendRoute(buf []int, src, dst int) []int
	// LinkEnds returns the endpoints of directed link id.
	LinkEnds(id int) (from, to int)
	// Hops returns the routing distance from src to dst.
	Hops(src, dst int) int
	// Diameter returns the maximum routing distance.
	Diameter() int
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

func checkP(p int) {
	if err := CheckP(p); err != nil {
		panic(err.Error())
	}
}

// Full is the fully connected network: two serial links (one per
// direction) between every pair of nodes.
type Full struct {
	p       int
	rt      *routeTable
	scratch []int
}

// NewFull returns a fully connected network over p nodes.
func NewFull(p int) *Full {
	checkP(p)
	f := &Full{p: p}
	f.rt = buildRouteTable(p, f.AppendRoute)
	if f.rt == nil {
		f.scratch = make([]int, 0, f.Diameter())
	}
	return f
}

func (f *Full) Name() string  { return "full" }
func (f *Full) P() int        { return f.p }
func (f *Full) NumLinks() int { return f.p * f.p }

// AppendRoute: the direct link src→dst.
func (f *Full) AppendRoute(buf []int, src, dst int) []int {
	return append(buf, src*f.p+dst)
}

func (f *Full) Route(src, dst int) []int {
	f.check(src, dst)
	if f.rt != nil {
		return f.rt.route(src, dst)
	}
	f.scratch = f.AppendRoute(f.scratch[:0], src, dst)
	return f.scratch
}

func (f *Full) LinkEnds(id int) (from, to int) { return id / f.p, id % f.p }
func (f *Full) Hops(src, dst int) int          { f.check(src, dst); return 1 }
func (f *Full) Diameter() int                  { return 1 }

// BisectionLinks counts the links between the two halves in both
// directions: 2 * (p/2)^2.
func (f *Full) BisectionLinks() int { return 2 * (f.p / 2) * (f.p / 2) }

// CrossesBisection splits the node set at p/2.
func (f *Full) CrossesBisection(src, dst int) bool {
	return (src < f.p/2) != (dst < f.p/2)
}

func (f *Full) check(src, dst int) {
	if src < 0 || src >= f.p || dst < 0 || dst >= f.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on full(%d)", src, dst, f.p))
	}
}

// Cube is the binary hypercube: each edge of the cube has a link in each
// direction, and routing is dimension-ordered (e-cube).
type Cube struct {
	p       int
	dims    int
	rt      *routeTable
	scratch []int
}

// NewCube returns a binary hypercube over p = 2^k nodes.
func NewCube(p int) *Cube {
	checkP(p)
	c := &Cube{p: p, dims: bits.TrailingZeros(uint(p))}
	c.rt = buildRouteTable(p, c.AppendRoute)
	if c.rt == nil {
		c.scratch = make([]int, 0, c.Diameter())
	}
	return c
}

func (c *Cube) Name() string  { return "cube" }
func (c *Cube) P() int        { return c.p }
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

// Route returns the e-cube route from the precomputed table (or the
// scratch buffer at large p).
func (c *Cube) Route(src, dst int) []int {
	c.check(src, dst)
	if c.rt != nil {
		return c.rt.route(src, dst)
	}
	c.scratch = c.AppendRoute(c.scratch[:0], src, dst)
	return c.scratch
}

func (c *Cube) LinkEnds(id int) (from, to int) {
	from = id / c.dims
	d := id % c.dims
	return from, from ^ (1 << d)
}

func (c *Cube) Hops(src, dst int) int {
	c.check(src, dst)
	return bits.OnesCount(uint(src ^ dst))
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

func (c *Cube) check(src, dst int) {
	if src < 0 || src >= c.p || dst < 0 || dst >= c.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on cube(%d)", src, dst, c.p))
	}
}

// Mesh is the 2-D mesh of the paper (the Intel Touchstone Delta shape):
// nodes in the interior have North/South/East/West neighbours; edges and
// corners have fewer.  For p an even power of two the mesh is square;
// otherwise it has twice as many columns as rows.  Routing is X-first
// (along the row to the destination column, then along the column).
type Mesh struct {
	p, rows, cols int
	rt            *routeTable
	scratch       []int
}

// Directions for mesh link ids: link id = node*4 + direction.
const (
	east = iota
	west
	north
	south
)

// NewMesh returns the 2-D mesh over p = 2^k nodes with the paper's
// aspect-ratio rule.
func NewMesh(p int) *Mesh {
	checkP(p)
	k := bits.TrailingZeros(uint(p))
	var rows, cols int
	if k%2 == 0 {
		rows = 1 << (k / 2)
		cols = rows
	} else {
		rows = 1 << ((k - 1) / 2)
		cols = 2 * rows
	}
	m := &Mesh{p: p, rows: rows, cols: cols}
	m.rt = buildRouteTable(p, m.AppendRoute)
	if m.rt == nil {
		m.scratch = make([]int, 0, m.Diameter())
	}
	return m
}

func (m *Mesh) Name() string  { return "mesh" }
func (m *Mesh) P() int        { return m.p }
func (m *Mesh) Rows() int     { return m.rows }
func (m *Mesh) Cols() int     { return m.cols }
func (m *Mesh) NumLinks() int { return m.p * 4 }

func (m *Mesh) node(r, c int) int       { return r*m.cols + c }
func (m *Mesh) coords(n int) (r, c int) { return n / m.cols, n % m.cols }

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

// Route returns the X-first route from the precomputed table (or the
// scratch buffer at large p).
func (m *Mesh) Route(src, dst int) []int {
	m.check(src, dst)
	if m.rt != nil {
		return m.rt.route(src, dst)
	}
	m.scratch = m.AppendRoute(m.scratch[:0], src, dst)
	return m.scratch
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

func (m *Mesh) Hops(src, dst int) int {
	m.check(src, dst)
	sr, sc := m.coords(src)
	dr, dc := m.coords(dst)
	return abs(sr-dr) + abs(sc-dc)
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

func (m *Mesh) check(src, dst int) {
	if src < 0 || src >= m.p || dst < 0 || dst >= m.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on mesh(%d)", src, dst, m.p))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
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
