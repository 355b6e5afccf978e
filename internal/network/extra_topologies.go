package network

import "fmt"

// Extension topologies beyond the paper's three: the unidirectional
// ring and the 2-D torus (the k-ary n-cube family analysed by Dally,
// whom the paper cites).  They slot into every experiment — the g
// derivation from bisection bandwidth, the detailed fabric, and the
// adaptive-g bisection predicate — so the abstraction-accuracy questions
// can be asked of networks the paper did not measure.

// Ring is a bidirectional ring: each node links to both neighbours, and
// messages take the shorter way around (ties go clockwise).
type Ring struct {
	p       int
	rt      *routeTable
	scratch []int
}

// NewRing returns a bidirectional ring over p nodes.
func NewRing(p int) *Ring {
	checkP(p)
	r := &Ring{p: p}
	r.rt = buildRouteTable(p, r.AppendRoute)
	if r.rt == nil {
		r.scratch = make([]int, 0, r.Diameter())
	}
	return r
}

// Ring link ids: node*2 is the clockwise link (to node+1), node*2+1 the
// counter-clockwise link (to node-1).
const (
	cw = iota
	ccw
)

func (r *Ring) Name() string  { return "ring" }
func (r *Ring) P() int        { return r.p }
func (r *Ring) NumLinks() int { return r.p * 2 }

func (r *Ring) check(src, dst int) {
	if src < 0 || src >= r.p || dst < 0 || dst >= r.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on ring(%d)", src, dst, r.p))
	}
}

// AppendRoute takes the shorter direction around the ring.
func (r *Ring) AppendRoute(buf []int, src, dst int) []int {
	step, dist := shorter(src, dst, r.p)
	id, last := src*2, r.p*2-2
	if step > 0 { // clockwise (ties clockwise)
		for ; dist > 0; dist-- {
			buf = append(buf, id+cw)
			if id += 2; id > last {
				id = 0
			}
		}
	} else {
		for ; dist > 0; dist-- {
			buf = append(buf, id+ccw)
			if id -= 2; id < 0 {
				id = last
			}
		}
	}
	return buf
}

// Route returns the shorter-way route from the precomputed table (or
// the scratch buffer at large p).
func (r *Ring) Route(src, dst int) []int {
	r.check(src, dst)
	if r.rt != nil {
		return r.rt.route(src, dst)
	}
	r.scratch = r.AppendRoute(r.scratch[:0], src, dst)
	return r.scratch
}

func (r *Ring) LinkEnds(id int) (from, to int) {
	from = id / 2
	if id%2 == cw {
		return from, (from + 1) % r.p
	}
	return from, (from - 1 + r.p) % r.p
}

func (r *Ring) Hops(src, dst int) int {
	r.check(src, dst)
	_, dist := shorter(src, dst, r.p)
	return dist
}

func (r *Ring) Diameter() int { return r.p / 2 }

// BisectionLinks: cutting the ring in half severs two edges, each with a
// link per direction.
func (r *Ring) BisectionLinks() int {
	if r.p == 2 {
		return 2
	}
	return 4
}

// CrossesBisection splits the node set at p/2.
func (r *Ring) CrossesBisection(src, dst int) bool {
	return (src < r.p/2) != (dst < r.p/2)
}

// Torus is the 2-D torus: the paper's mesh with wraparound links, the
// canonical k-ary 2-cube.  Routing is dimension-ordered, taking the
// shorter way around each dimension.
type Torus struct {
	p, rows, cols int
	rt            *routeTable
	scratch       []int
}

// NewTorus returns a 2-D torus over p = 2^k nodes with the same aspect
// ratio rule as the mesh.
func NewTorus(p int) *Torus {
	m := NewMesh(p)
	t := &Torus{p: p, rows: m.Rows(), cols: m.Cols()}
	t.rt = buildRouteTable(p, t.AppendRoute)
	if t.rt == nil {
		t.scratch = make([]int, 0, t.Diameter())
	}
	return t
}

func (t *Torus) Name() string  { return "torus" }
func (t *Torus) P() int        { return t.p }
func (t *Torus) NumLinks() int { return t.p * 4 }

func (t *Torus) node(r, c int) int       { return r*t.cols + c }
func (t *Torus) coords(n int) (r, c int) { return n / t.cols, n % t.cols }

func (t *Torus) check(src, dst int) {
	if src < 0 || src >= t.p || dst < 0 || dst >= t.p || src == dst {
		panic(fmt.Sprintf("network: bad route %d -> %d on torus(%d)", src, dst, t.p))
	}
}

// shorter returns the signed step (+1/-1) and distance for the shorter
// way from a to b modulo n (ties positive).
func shorter(a, b, n int) (step, dist int) {
	fwd := b - a
	if fwd < 0 {
		fwd += n
	}
	if fwd <= n-fwd {
		return 1, fwd
	}
	return -1, n - fwd
}

// AppendRoute is X-first dimension-ordered with wraparound.  A link id is
// node*4+direction, so a hop along a row moves the id by 4 and a hop
// along a column by a row of them; stepping off an edge jumps back by a
// whole row, or by the whole torus.
func (t *Torus) AppendRoute(buf []int, src, dst int) []int {
	sr, sc := t.coords(src)
	dr, dc := t.coords(dst)
	id, row, all := src*4, t.cols*4, t.p*4
	if step, dist := shorter(sc, dc, t.cols); step > 0 {
		for c := sc; dist > 0; dist-- {
			buf = append(buf, id+east)
			id += 4
			if c++; c == t.cols {
				c, id = 0, id-row
			}
		}
	} else {
		for c := sc; dist > 0; dist-- {
			buf = append(buf, id+west)
			id -= 4
			if c--; c < 0 {
				c, id = t.cols-1, id+row
			}
		}
	}
	if step, dist := shorter(sr, dr, t.rows); step > 0 {
		for ; dist > 0; dist-- {
			buf = append(buf, id+south)
			if id += row; id >= all {
				id -= all
			}
		}
	} else {
		for ; dist > 0; dist-- {
			buf = append(buf, id+north)
			if id -= row; id < 0 {
				id += all
			}
		}
	}
	return buf
}

// Route returns the dimension-ordered route from the precomputed table
// (or the scratch buffer at large p).
func (t *Torus) Route(src, dst int) []int {
	t.check(src, dst)
	if t.rt != nil {
		return t.rt.route(src, dst)
	}
	t.scratch = t.AppendRoute(t.scratch[:0], src, dst)
	return t.scratch
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

func (t *Torus) Hops(src, dst int) int {
	t.check(src, dst)
	sr, sc := t.coords(src)
	dr, dc := t.coords(dst)
	_, dx := shorter(sc, dc, t.cols)
	_, dy := shorter(sr, dr, t.rows)
	return dx + dy
}

func (t *Torus) Diameter() int { return t.rows/2 + t.cols/2 }

// BisectionLinks: the vertical cut through the column halves severs two
// column boundaries (the cut itself and the wraparound), each crossed by
// one link per row per direction: 4 * rows.  A 1-row torus degenerates
// to a ring.
func (t *Torus) BisectionLinks() int {
	if t.cols == 2 {
		// The cut and the wraparound are the same pair of columns;
		// count each directed link once.
		return 2 * t.rows
	}
	return 4 * t.rows
}

// CrossesBisection splits between the two column halves.
func (t *Torus) CrossesBisection(src, dst int) bool {
	_, sc := t.coords(src)
	_, dc := t.coords(dst)
	return (sc < t.cols/2) != (dc < t.cols/2)
}
