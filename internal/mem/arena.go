package mem

// Arena hands a program the host slices its values live in — the Go
// memory next to the simulated Space — and keeps them for the next run
// on the same context.  Each element type has one slab that requests are
// cut from in order.  A request the slab cannot hold is made fresh, and
// Reset then grows the slab to the whole run's demand and an eighth, so a
// context retains at most that much over the largest program it ran, and
// a rerun of that program allocates nothing.  Every slice is zeroed when
// handed out.
//
// The zero Arena is ready to use: its first run makes every slice, as an
// unpooled run does.  An Arena belongs to one run at a time, and a slice
// it handed out is valid only until the next Reset.
type Arena struct {
	f64  slab[float64]
	ints slab[int]
	i64  slab[int64]
	c128 slab[complex128]
}

// Floats returns n zeroed float64s.
func (a *Arena) Floats(n int) []float64 { return a.f64.take(n) }

// Ints returns n zeroed ints.
func (a *Arena) Ints(n int) []int { return a.ints.take(n) }

// Int64s returns n zeroed int64s.
func (a *Arena) Int64s(n int) []int64 { return a.i64.take(n) }

// Complexes returns n zeroed complex128s.
func (a *Arena) Complexes(n int) []complex128 { return a.c128.take(n) }

// Reset rewinds the arena for a new run, first growing each slab that
// the last run overflowed to that run's whole demand.
func (a *Arena) Reset() {
	a.f64.reset()
	a.ints.reset()
	a.i64.reset()
	a.c128.reset()
}

// slab is one element type's storage: buf is cut from the front, off is
// how far, and need is what this run has asked for in all.
type slab[T any] struct {
	buf       []T
	off, need int
}

func (s *slab[T]) take(n int) []T {
	s.need += n
	if s.off+n > len(s.buf) {
		return make([]T, n)
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	clear(out)
	return out
}

func (s *slab[T]) reset() {
	if s.need > len(s.buf) {
		// An eighth more than the run took, so that the same program on
		// another seed, whose inputs differ in size by a few entries,
		// fits.
		s.buf = make([]T, s.need+s.need/8)
	}
	s.off, s.need = 0, 0
}
