package mem

import "testing"

// bytes returns what the arena retains across runs.
func (a *Arena) bytes() int {
	return 8*(len(a.f64.buf)+len(a.ints.buf)+len(a.i64.buf)) + 16*len(a.c128.buf)
}

// arenaRun takes what one run of a program of size n asks for and
// scribbles over all of it, as a run leaves its arrays.
func arenaRun(a *Arena, n int) {
	for _, s := range [][]float64{a.Floats(n), a.Floats(2 * n)} {
		for i := range s {
			s[i] = 1
		}
	}
	for i, s := 0, a.Ints(n); i < len(s); i++ {
		s[i] = 1
	}
	for i, s := 0, a.Int64s(n); i < len(s); i++ {
		s[i] = 1
	}
	for i, s := 0, a.Complexes(n); i < len(s); i++ {
		s[i] = 1
	}
}

func TestArenaZeroesWhatItHandsOut(t *testing.T) {
	a := new(Arena)
	for _, n := range []int{8, 64, 8, 64, 1} {
		a.Reset()
		f, i, i64, c := a.Floats(n), a.Ints(n), a.Int64s(n), a.Complexes(n)
		for k := 0; k < n; k++ {
			if f[k] != 0 || i[k] != 0 || i64[k] != 0 || c[k] != 0 {
				t.Fatalf("n=%d: element %d handed out dirty", n, k)
			}
		}
		if len(f) != n || cap(f) != n {
			t.Fatalf("n=%d: slice has len %d cap %d", n, len(f), cap(f))
		}
		a.Reset()
		arenaRun(a, n)
	}
}

// A rerun of the largest program an arena has held allocates nothing, and
// the arena keeps at most an eighth more than that program took.
func TestArenaRerunAllocatesNothing(t *testing.T) {
	a := new(Arena)
	arenaRun(a, 100)
	a.Reset()
	arenaRun(a, 1000)
	a.Reset()
	arenaRun(a, 10)
	a.Reset()
	if allocs := testing.AllocsPerRun(10, func() { arenaRun(a, 1000); a.Reset() }); allocs != 0 {
		t.Errorf("a rerun allocated %v times", allocs)
	}
	took := 8*(3000+1000+1000) + 16*1000
	if got := a.bytes(); got < took || got > took+took/8 {
		t.Errorf("arena retains %d bytes for a program that took %d", got, took)
	}
}

// Slices handed out in one run never overlap.
func TestArenaSlicesAreDisjoint(t *testing.T) {
	a := new(Arena)
	arenaRun(a, 50)
	a.Reset()
	x, y := a.Floats(30), a.Floats(70)
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		if y[i] != 0 {
			t.Fatalf("second slice shares element %d with the first", i)
		}
	}
	if _ = append(x, 2); y[0] != 0 {
		t.Fatal("appending to a handed-out slice wrote into the next one")
	}
}
