package network

import "testing"

// FuzzRoutes checks, for arbitrary (topology, p, src, dst) choices, that
// routing never panics on valid inputs and always produces a connected
// route of the advertised length, on the route table (p <= 128) and on
// the scratch path above RouteTableMaxP.
func FuzzRoutes(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint16(1), uint16(7))
	f.Add(uint8(4), uint8(6), uint16(63), uint16(0))
	f.Add(uint8(2), uint8(9), uint16(1000), uint16(31))
	f.Fuzz(func(t *testing.T, topoSel, logP uint8, srcRaw, dstRaw uint16) {
		names := Names()
		name := names[int(topoSel)%len(names)]
		p := 1 << (1 + int(logP)%10) // 2..1024
		topo, err := New(name, p)
		if err != nil {
			t.Fatal(err)
		}
		o := topo.(oracle)
		src := int(srcRaw) % p
		dst := int(dstRaw) % p
		if src == dst {
			return
		}
		route := topo.Route(src, dst)
		if len(route) != o.Hops(src, dst) {
			t.Fatalf("%s(%d): route %d->%d length %d != hops %d",
				name, p, src, dst, len(route), o.Hops(src, dst))
		}
		cur := src
		for _, l := range route {
			from, to := o.LinkEnds(l)
			if from != cur {
				t.Fatalf("%s(%d): disconnected route at link %d", name, p, l)
			}
			cur = to
		}
		if cur != dst {
			t.Fatalf("%s(%d): route ends at %d, want %d", name, p, cur, dst)
		}
	})
}
