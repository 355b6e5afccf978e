package network

// Extension topologies beyond the paper's three: the unidirectional
// ring and the 2-D torus (the k-ary n-cube family analysed by Dally,
// whom the paper cites).  They slot into every experiment — the g
// derivation from bisection bandwidth, the detailed fabric, and the
// adaptive-g bisection predicate — so the abstraction-accuracy questions
// can be asked of networks the paper did not measure.

// Ring is a bidirectional ring: each node links to both neighbours, and
// messages take the shorter way around (ties go clockwise).
type Ring struct{ router }

// NewRing returns a bidirectional ring over p nodes.
func NewRing(p int) *Ring {
	r := &Ring{newRouter("ring", p)}
	r.build(r.AppendRoute, r.Diameter())
	return r
}

// Ring link ids: node*2 is the clockwise link (to node+1), node*2+1 the
// counter-clockwise link (to node-1).
const (
	cw = iota
	ccw
)

func (r *Ring) NumLinks() int { return r.p * 2 }

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
	router
	grid
}

// NewTorus returns a 2-D torus over p = 2^k nodes with the mesh's shape.
func NewTorus(p int) *Torus {
	t := &Torus{newRouter("torus", p), newGrid(p)}
	t.build(t.AppendRoute, t.Diameter())
	return t
}

func (t *Torus) NumLinks() int { return t.p * 4 }

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
