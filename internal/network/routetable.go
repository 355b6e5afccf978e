package network

// Route-table precomputation.  The topologies of the study are small
// (the paper sweeps p ≤ 64) and their routing is deterministic, so every
// route can be materialized once at construction into a single
// contiguous arena.  Route then becomes two array loads and a slice
// header — zero allocations per call — which takes per-message route
// building off the fabric's hot path entirely.
//
// Above RouteTableMaxP nodes the table would cost O(p² · diameter)
// memory, so the router (topology.go) instead preallocates a
// diameter-sized scratch buffer and Route computes each route on demand
// into it — still zero allocations per call, at the price of the
// returned slice being valid only until the next Route call (see
// Topology.Route); the detailed fabric consumes each route within one
// Reserve call.

// RouteTableMaxP bounds precomputation: tables exist only for p values
// up to this limit (128 leaves headroom for scaling studies while
// keeping the paper topologies' tables near a megabyte; the ring's is
// 4 MB).  Larger machines use the on-demand scratch path.
const RouteTableMaxP = 128

// routeTable holds every src→dst route of a topology, concatenated into
// one arena slice with (p·p+1) offsets.
type routeTable struct {
	p     int
	off   []int32
	arena []int
}

// appendRouter is the compute form of a topology's routing function:
// append the links of the src→dst route to buf and return the extended
// slice.  Each topology exposes its routing logic in this form as
// AppendRoute; the table is built from it and Route serves from the
// table (or, at large p, computes through it into reusable scratch).
type appendRouter func(buf []int, src, dst int) []int

// buildRouteTable materializes all p·(p-1) routes of a topology whose
// routes are at most diameter links long, or returns nil when p exceeds
// RouteTableMaxP.  A first pass measures every route into a
// diameter-sized buffer to set the offsets, so the arena is allocated
// once at its final size and the second pass only fills it.
func buildRouteTable(p, diameter int, route appendRouter) *routeTable {
	if p > RouteTableMaxP {
		return nil
	}
	rt := &routeTable{p: p, off: make([]int32, p*p+1)}
	buf, n := make([]int, 0, diameter), 0
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				n += len(route(buf[:0], src, dst))
			}
			rt.off[src*p+dst+1] = int32(n)
		}
	}
	rt.arena = make([]int, 0, n)
	for src := 0; src < p; src++ {
		for dst := 0; dst < p; dst++ {
			if src != dst {
				rt.arena = route(rt.arena, src, dst)
			}
		}
	}
	return rt
}

// route returns the precomputed src→dst route.  The slice aliases the
// shared arena with its capacity clipped, so an append by the caller
// copies instead of clobbering the neighbouring route; callers must not
// modify elements in place.
func (rt *routeTable) route(src, dst int) []int {
	i := src*rt.p + dst
	lo, hi := rt.off[i], rt.off[i+1]
	return rt.arena[lo:hi:hi]
}
