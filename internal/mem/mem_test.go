package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSpaceValidation(t *testing.T) {
	mustPanic(t, func() { NewSpace(0, 32) })
	mustPanic(t, func() { NewSpace(4, 33) })
	mustPanic(t, func() { NewSpace(4, 0) })
	s := NewSpace(4, 32)
	if s.P() != 4 || s.BlockBytes() != 32 {
		t.Errorf("P=%d BlockBytes=%d", s.P(), s.BlockBytes())
	}
}

func TestBlockArithmetic(t *testing.T) {
	s := NewSpace(2, 32)
	if s.BlockOf(0) != 0 || s.BlockOf(31) != 0 || s.BlockOf(32) != 1 {
		t.Error("BlockOf wrong")
	}
	if s.BlockBase(3) != 96 {
		t.Errorf("BlockBase(3) = %d", s.BlockBase(3))
	}
}

func TestBlockedPlacement(t *testing.T) {
	s := NewSpace(4, 32)
	a := s.Alloc("x", 64, 8, Blocked) // 512 bytes, 128 per node
	for i := 0; i < 64; i++ {
		want := i / 16 // 16 elements of 8 bytes per 128-byte chunk
		if got := a.home(a.At(i)); got != want {
			t.Fatalf("home of element %d = %d, want %d", i, got, want)
		}
	}
	lo, hi := a.OwnerRange(1)
	if lo != 16 || hi != 32 {
		t.Errorf("OwnerRange(1) = [%d,%d)", lo, hi)
	}
}

func TestBlockedPaddingNoSplitBlocks(t *testing.T) {
	// 10 elements of 8 bytes over 4 nodes: 80 bytes, 20/node before
	// padding — the allocator must pad chunks to block multiples.
	s := NewSpace(4, 32)
	a := s.Alloc("x", 10, 8, Blocked)
	for i := 0; i < 10; i++ {
		addr := a.At(i)
		blockStart := s.BlockBase(s.BlockOf(addr))
		blockEnd := blockStart + Addr(s.BlockBytes()) - 1
		if s.Home(blockStart) != s.Home(blockEnd) {
			t.Fatalf("block of element %d spans two homes", i)
		}
	}
}

func TestInterleavedPlacement(t *testing.T) {
	s := NewSpace(4, 32)
	a := s.Alloc("x", 32, 32, Interleaved) // one element per block
	for i := 0; i < 32; i++ {
		if got := a.home(a.At(i)); got != i%4 {
			t.Fatalf("home of element %d = %d, want %d", i, got, i%4)
		}
	}
}

func TestFixedPlacement(t *testing.T) {
	s := NewSpace(4, 32)
	a := s.AllocAt("lock", 4, 8, 2)
	for i := 0; i < 4; i++ {
		if a.home(a.At(i)) != 2 {
			t.Fatalf("home of element %d != 2", i)
		}
	}
	mustPanic(t, func() { s.AllocAt("bad", 1, 8, 7) })
	mustPanic(t, func() { s.Alloc("bad", 1, 8, Fixed) })
}

func TestRegionsDisjointAndFindable(t *testing.T) {
	s := NewSpace(4, 32)
	arrs := []*Array{
		s.Alloc("a", 100, 8, Blocked),
		s.Alloc("b", 7, 4, Interleaved),
		s.AllocAt("c", 3, 8, 1),
		s.Alloc("d", 1, 1, Blocked),
	}
	for _, a := range arrs {
		for i := 0; i < a.N; i++ {
			if r := s.Region(a.At(i)); r != a {
				t.Fatalf("Region(%s[%d]) = %v", a.Name, i, r)
			}
		}
	}
	if s.Region(s.Size()) != nil {
		t.Error("Region past end should be nil")
	}
	mustPanic(t, func() { s.Home(s.Size() + 100) })
}

func TestArrayBoundsPanic(t *testing.T) {
	s := NewSpace(2, 32)
	a := s.Alloc("x", 4, 8, Blocked)
	mustPanic(t, func() { a.At(-1) })
	mustPanic(t, func() { a.At(4) })
}

func TestOwnerRangeCoversAllElements(t *testing.T) {
	s := NewSpace(8, 32)
	a := s.Alloc("x", 1000, 8, Blocked)
	covered := make([]bool, a.N)
	for n := 0; n < 8; n++ {
		lo, hi := a.OwnerRange(n)
		for i := lo; i < hi; i++ {
			if covered[i] {
				t.Fatalf("element %d in two ranges", i)
			}
			covered[i] = true
			if a.home(a.At(i)) != n {
				t.Fatalf("OwnerRange(%d) contains element %d homed at %d", n, i, a.home(a.At(i)))
			}
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("element %d uncovered", i)
		}
	}
}

func TestPolicyString(t *testing.T) {
	if Blocked.String() != "blocked" || Interleaved.String() != "interleaved" ||
		Fixed.String() != "fixed" || Policy(9).String() == "" {
		t.Error("Policy.String broken")
	}
}

// Property: for random allocation sequences, every element address maps
// back to its own array, homes are in range, and regions never overlap.
func TestAllocationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 << (1 + rng.Intn(5)) // 2..32
		s := NewSpace(p, 32)
		type probe struct {
			a *Array
			i int
		}
		var probes []probe
		for k := 0; k < 10; k++ {
			n := 1 + rng.Intn(200)
			es := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
			var a *Array
			switch rng.Intn(3) {
			case 0:
				a = s.Alloc("a", n, es, Blocked)
			case 1:
				a = s.Alloc("a", n, es, Interleaved)
			default:
				a = s.AllocAt("a", n, es, rng.Intn(p))
			}
			for j := 0; j < 5; j++ {
				probes = append(probes, probe{a, rng.Intn(n)})
			}
		}
		for _, pr := range probes {
			addr := pr.a.At(pr.i)
			if s.Region(addr) != pr.a {
				return false
			}
			h := s.Home(addr)
			if h < 0 || h >= p {
				return false
			}
			// home is consistent for every byte of the element
			// that stays within one block
			if pr.a.ElemSize <= s.BlockBytes() {
				if s.BlockOf(addr) == s.BlockOf(addr+Addr(pr.a.ElemSize)-1) &&
					s.Home(addr+Addr(pr.a.ElemSize)-1) != h {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
