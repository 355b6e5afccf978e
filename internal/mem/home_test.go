package mem

import (
	"fmt"
	"testing"
)

// panicOf runs f and returns what it panicked with (nil: it returned).
func panicOf(f func()) (r any) {
	defer func() { r = recover() }()
	f()
	return nil
}

// TestSingleRegionHomeMatchesMemo: a space of one region answers Home from
// the array's arithmetic, a space of several from the per-block memo.  The
// twin of every single-region layout — the same array, then a second one
// that switches the memo on — must give every byte-addressed block the
// same home, on the pass that fills the memo and on the one that reads it.
func TestSingleRegionHomeMatchesMemo(t *testing.T) {
	for _, c := range []struct {
		name  string
		p     int
		alloc func(s *Space) *Array
	}{
		{"blocked, even chunks", 8, func(s *Space) *Array { return s.Alloc("x", 8*256, 8, Blocked) }},
		// 1000 elements over 16 nodes: every chunk is padded to a block
		// multiple and the last node's holds padding only past element 999.
		{"blocked, padded chunks", 16, func(s *Space) *Array { return s.Alloc("x", 1000, 8, Blocked) }},
		{"blocked, fewer elements than nodes", 32, func(s *Space) *Array { return s.Alloc("x", 5, 8, Blocked) }},
		{"blocked, chunk not a power of two", 8, func(s *Space) *Array { return s.Alloc("x", 8*12, 8, Blocked) }},
		{"interleaved", 8, func(s *Space) *Array { return s.Alloc("x", 999, 8, Interleaved) }},
		{"interleaved, three nodes", 3, func(s *Space) *Array { return s.Alloc("x", 100, 32, Interleaved) }},
		{"fixed", 8, func(s *Space) *Array { return s.AllocAt("x", 100, 8, 5) }},
	} {
		one, two := NewSpace(c.p, 32), NewSpace(c.p, 32)
		a := c.alloc(one)
		c.alloc(two)
		two.AllocAt("memo.on", 1, 8, 0)
		if one.single != a || two.single != nil {
			t.Fatalf("%s: single = %v / %v, want the array / nil", c.name, one.single, two.single)
		}
		last := -1
		for pass := 0; pass < 2; pass++ {
			for addr := a.Base; addr < a.Base+a.Bytes; addr += 8 {
				got, want := one.Home(addr), two.Home(addr)
				if got != want || got < 0 || got >= c.p {
					t.Fatalf("%s, pass %d: Home(%#x) = %d closed-form, %d memoized", c.name, pass, uint64(addr), got, want)
				}
				last = got
			}
		}
		if a.Policy == Blocked && last != c.p-1 {
			t.Errorf("%s: the array's last block is homed at %d, want the last node", c.name, last)
		}
		if len(one.homes) != 0 {
			t.Errorf("%s: a single-region space built a %d-entry memo", c.name, len(one.homes))
		}
		// Past the region both spaces say the same thing the same way.
		end := one.Size()
		got := panicOf(func() { one.Home(end) })
		if want := fmt.Sprintf("mem: Home of unallocated address %#x", uint64(end)); got != want {
			t.Errorf("%s: Home past the region panicked with %v, want %q", c.name, got, want)
		}
	}
	if got := panicOf(func() { NewSpace(4, 32).Home(0) }); got != "mem: Home of unallocated address 0x0" {
		t.Errorf("Home in an empty space panicked with %v", got)
	}

	// A second allocation, and a Reset, take the closed form away and give
	// it back: the memo starts empty either way.
	s := NewSpace(4, 32)
	a := s.Alloc("x", 64, 8, Blocked)
	s.Home(a.At(63))
	b := s.Alloc("y", 64, 8, Interleaved)
	if s.single != nil || s.Home(a.At(63)) != 3 || s.Home(b.At(4)) != 1 {
		t.Error("a space that grew a second region answers wrongly")
	}
	s.Reset(4, 32)
	if a = s.AllocAt("z", 64, 8, 2); s.single != a || s.Home(a.At(63)) != 2 {
		t.Error("a reset space of one region answers wrongly")
	}
}

// TestHomeMemoHoldsEveryNode: the memo's entries hold any node of the
// largest machine.  (They were int16 once, and Home quietly re-resolved —
// a binary search over regions — every reference to the upper half of a
// 65536-node machine.)  After one pass over a two-region space at P =
// 65536 the region list is taken away: a block Home still had to resolve
// would now panic as unallocated.
func TestHomeMemoHoldsEveryNode(t *testing.T) {
	const P = 65536
	s := NewSpace(P, 32)
	blocked := s.Alloc("b", P*4, 8, Blocked) // one block a node
	inter := s.Alloc("i", P*4, 8, Interleaved)
	want := make([]int, 0, 2*P)
	for _, a := range []*Array{blocked, inter} {
		for addr := a.Base; addr < a.Base+a.Bytes; addr += 32 {
			want = append(want, s.Home(addr))
		}
	}
	if want[P-1] != P-1 || want[2*P-1] != P-1 {
		t.Fatalf("last blocks homed at %d and %d, want %d", want[P-1], want[2*P-1], P-1)
	}
	s.regions = nil
	for b, h := range want {
		if got := s.Home(s.BlockBase(Block(b))); got != h {
			t.Fatalf("block %d: home %d from the memo, %d when resolved", b, got, h)
		}
	}
}
