// Package flow is the simulator's coarsest network tier: traffic is
// modeled as bandwidth-sharing *flows* over the shared-capacity
// topology, in the style of Narses, instead of as per-message circuit
// reservations (the detailed fabric) or per-endpoint port gating (the
// LogP abstraction).
//
// A message from src to dst becomes one flow across the route's
// resources — the source injection port, every directed link on the
// deterministic route, and the destination ejection port.  Each
// resource's nominal capacity is one byte per ByteTime; flows crossing
// a shared resource divide its capacity equally, so a flow's delivery
// time is
//
//	startup + bytes/allocated_bw
//
// re-evaluated only when the bottleneck set changes — that is, at the
// committed arrival and departure times of the competing flows — never
// per hop.  An uncontended flow takes a constant-time fast path with no
// allocation work at all, which is where the orders-of-magnitude event
// reduction over the per-hop model comes from: the detailed fabric pays
// len(route)+2 resource events for every message regardless of load,
// while the flow tier pays allocation recomputations only where sharing
// actually occurs.
//
// The model is deliberately an approximation, in two documented ways:
//
//   - Allocation is *arrival-committed* equal-share max-min fairness: a
//     newly admitted flow is rate-limited by its most-loaded resource
//     (the bottleneck), walking the segments delimited by the committed
//     departures of its competitors, but the competitors' own committed
//     finish times are not re-opened.  This keeps every Transfer O(active
//     flows) with no global water-filling iteration, at the cost of
//     slightly optimistic service for flows admitted first.
//   - The active-flow table is bounded (MaxFlows): when processors'
//     local clocks run far ahead of the engine between synchronization
//     points, the earliest-ending flows beyond the bound are retired
//     early.  The bound is generous (4P+64) and deterministic, so runs
//     remain bit-reproducible.
//
// Everything in the package is integer arithmetic over sim.Time and a
// pure function of the Transfer call sequence: identical runs produce
// identical schedules, counters, and profiles.
package flow

import (
	"fmt"

	"spasm/internal/network"
	"spasm/internal/sim"
)

// Xmit describes one flow's schedule on the shared-capacity network.
type Xmit struct {
	Start sim.Time // admission time (the requested departure; no port gating)
	End   sim.Time // when the last byte arrived
	// Latency is the contention-free component: Startup + bytes*ByteTime.
	Latency sim.Time
	// Wait is the sharing-induced stretch (End - Start - Latency); it is
	// charged to the contention overhead.
	Wait sim.Time
	// Share is the number of flows (including this one) sharing the
	// bottleneck resource at admission; 1 means the flow was uncontended.
	Share int
	// Bottleneck is the id, in the net's resource space (see LinkSpace),
	// of the most-loaded resource on the flow's route at admission.
	Bottleneck int
}

// flowRec is one active flow: its occupancy window and the resources it
// crosses.  The links slice is owned by the record and recycled.
type flowRec struct {
	start, end sim.Time
	links      []int32
}

// Net is the flow-abstracted network over a topology.  Create with New;
// drive with Transfer; reuse across runs with Reset.
type Net struct {
	topo network.Topology

	// ByteTime is the per-byte transmission time of a nominal-capacity
	// resource (defaults to sim.SerialByte, i.e. 20 MB/s).
	ByteTime sim.Time
	// Startup is the per-flow fixed setup latency, independent of
	// sharing (default 0, matching the paper's negligible switch delay).
	Startup sim.Time
	// MaxFlows bounds the active-flow table (default 4P+64); see the
	// package comment for the retirement rule.
	MaxFlows int

	p      int
	nReal  int // directed links in the topology's id space
	nSpace int // nReal + 2P endpoint ports

	floor  sim.Time  // departures at or before this are settled (Settle)
	minEnd sim.Time  // earliest end among table entries (maxTime when empty)
	live   int       // table length after the last sweep (amortization base)
	flows  []flowRec // active-flow table, compact

	// Competitor index: per-resource singly linked lists threaded
	// through one entry arena.  resHead[id] is the first arena entry for
	// resource id (-1: none); each entry names a flow index and the next
	// entry, packed into eight bytes — the walk reads the flow's
	// committed end (immutable after admission) from the flow table,
	// which admissions keep hot anyway.  Entries are
	// pushed on commit (most-recent first) and the whole arena is
	// rebuilt whenever prune compacts the table; resTouched records
	// which head entries are non-empty so rebuilds and Reset clear
	// O(active footprint), not O(nSpace) — on the fully connected
	// topology nSpace is O(p²), and a dense [][]int32 index cost 24
	// bytes of header per resource besides.  Entries for flows that have
	// already ended linger until the next sweep — every reader filters
	// on end > t0, so they are invisible — but entries settled below the
	// floor are unlinked in place as walks encounter them, so long-dead
	// chains are not re-traversed between sweeps.  The index turns the
	// per-Transfer competitor search from O(table × route) into a walk
	// of the route's own lists.  Walk order does not affect results:
	// competitor sets are deduplicated, their count updates commute, and
	// allocate applies all equal-time boundaries together.
	resHead    []int32
	pool       []poolEnt
	resTouched []int32

	seen  []int64 // per-flow-index visit stamp for the epoch dedup below
	epoch int64   // bumped per Transfer; never reset (only equality matters)

	// Scratch state, sized to nSpace, cleared after every Transfer.
	onRoute []bool
	cnt     []int32
	ids     []int32    // the new flow's resource ids
	bounds  []sim.Time // prune's end-time selection scratch
	comp    []int32    // indices into flows of the route-crossing competitors

	// allocate's event-sweep arena: one reusable slice of boundary
	// records, sorted by time per admission.  A single struct array
	// keeps each boundary's fields on one cache line and sorts with an
	// inlined comparator — no sort.Interface indirection, no multi-array
	// swap.
	evs []segEvent

	// Messages and Bytes count all traffic carried.  Recomputes counts
	// allocation recomputations — one per contended admission (however
	// many committed-competitor segments its schedule walks internally),
	// none for the uncontended fast path — the tier's model-event
	// metric.  This is the flow analogue of the detailed fabric's
	// per-hop reservation count: one unit per model decision, with the
	// decision's internal bookkeeping uncounted on both sides.
	Messages   uint64
	Bytes      uint64
	Recomputes uint64

	// Observer, when non-nil, is invoked from Transfer for every flow
	// the network carries, with the requested departure time and the
	// resulting schedule.
	Observer func(now sim.Time, x Xmit, src, dst, bytes int)
}

// New returns a flow network over the given topology with the paper's
// link parameters.
func New(t network.Topology) *Net {
	p := t.P()
	nSpace := t.NumLinks() + 2*p
	n := &Net{
		topo:     t,
		ByteTime: sim.SerialByte,
		MaxFlows: 4*p + 64,
		p:        p,
		nReal:    t.NumLinks(),
		nSpace:   nSpace,
		minEnd:   maxTime,
		resHead:  make([]int32, nSpace),
		onRoute:  make([]bool, nSpace),
		cnt:      make([]int32, nSpace),
	}
	for i := range n.resHead {
		n.resHead[i] = -1
	}
	return n
}

// segEvent is one boundary of allocate's event sweep: at time t,
// competitor fi arrives (add) or departs on the new flow's route.
type segEvent struct {
	t   sim.Time
	fi  int32
	add bool
}

// poolEnt is one competitor-index arena entry: the named flow and the
// next entry on the same resource's list, packed into one 8-byte load.
// The flow's end time is read from the flow table (hot: every admission
// touches it) rather than copied here — at saturation the arena holds
// table x route entries, so every byte of entry width is megabytes of
// per-run allocation.
type poolEnt struct {
	flow int32
	next int32
}

// pushRes threads flow fi onto resource id's competitor list.
func (n *Net) pushRes(id, fi int32) {
	if n.resHead[id] < 0 {
		n.resTouched = append(n.resTouched, id)
	}
	n.pool = append(n.pool, poolEnt{flow: fi, next: n.resHead[id]})
	n.resHead[id] = int32(len(n.pool) - 1)
}

// clearRes empties the competitor index in O(touched resources).
func (n *Net) clearRes() {
	for _, id := range n.resTouched {
		n.resHead[id] = -1
	}
	n.resTouched = n.resTouched[:0]
	n.pool = n.pool[:0]
}

// P returns the number of nodes.
func (n *Net) P() int { return n.p }

// Topology returns the underlying topology.
func (n *Net) Topology() network.Topology { return n.topo }

// LinkSpace returns the size of the resource id space: the topology's
// directed links first, then the P injection ports, then the P ejection
// ports.  Telemetry (per-bottleneck samples) indexes into this space.
func (n *Net) LinkSpace() int { return n.nSpace }

// InjID and EjID return the resource ids of a node's endpoint ports.
func (n *Net) InjID(node int) int { return n.nReal + node }
func (n *Net) EjID(node int) int  { return n.nReal + n.p + node }

// Settle tells the network that no future Transfer will request a
// departure earlier than upTo (callers pass the engine's global clock —
// a lower bound on every processor's local clock).  Flows that ended at
// or before the floor can never compete again and are pruned.
func (n *Net) Settle(upTo sim.Time) {
	if upTo > n.floor {
		n.floor = upTo
	}
}

// Reset returns the net to its post-New state in place: the active-flow
// table emptied (record slices are kept for reuse), the settle floor
// rewound, traffic and recomputation counters zeroed, and no Observer.
// ByteTime, Startup and MaxFlows are configuration of the pooled
// context and are left alone.
func (n *Net) Reset() {
	for i := range n.flows {
		n.flows[i].start = 0
		n.flows[i].end = 0
		n.flows[i].links = n.flows[i].links[:0]
	}
	n.flows = n.flows[:0]
	n.clearRes()
	n.floor = 0
	n.minEnd = maxTime
	n.live = 0
	n.Messages = 0
	n.Bytes = 0
	n.Recomputes = 0
	n.Observer = nil
}

// maxTime is the empty-table sentinel for minEnd.
const maxTime = sim.Time(1)<<62 - 1

// prune drops settled flows, and — if the table is still over MaxFlows —
// retires the earliest-ending flows beyond the bound.  Compaction is
// order-preserving so the table contents stay a deterministic function
// of the call sequence.
//
// The O(table) sweep is amortized: it runs only when it would remove
// something (the floor passed the earliest entry's end) AND the table
// has grown well past the previous sweep's live count — or,
// unconditionally, when the table hits its MaxFlows bound.  Settled
// flows lingering between sweeps are invisible (every competitor check
// filters on end > t0 ≥ floor), and compaction always uses the
// *current* floor, so the live set — and hence which flows a full
// table evicts — is independent of when sweeps ran: deferral never
// changes a schedule.
func (n *Net) prune() {
	if len(n.flows) < n.MaxFlows &&
		(n.minEnd > n.floor || len(n.flows) < 2*n.live+16) {
		return
	}
	keep := n.flows[:0]
	for i := range n.flows {
		if n.flows[i].end <= n.floor {
			continue
		}
		if len(keep) < len(n.flows) {
			// Swap records (not copy) so evicted slots keep their link
			// slices for reuse.
			j := len(keep)
			n.flows[i], n.flows[j] = n.flows[j], n.flows[i]
		}
		keep = n.flows[:len(keep)+1]
	}
	tail := n.flows[len(keep):]
	for i := range tail {
		tail[i].links = tail[i].links[:0]
	}
	n.flows = keep
	if len(n.flows) >= n.MaxFlows {
		// Batch retirement: evict the earliest-ending eighth of the
		// table (at least one) in a single order-preserving pass, so a
		// saturated table pays one O(table) sweep per batch instead of
		// per admission.  Ties at the cutoff end break in table order —
		// deterministic, like everything else here.
		evict := n.MaxFlows/8 + 1
		n.bounds = n.bounds[:0]
		for i := range n.flows {
			n.bounds = append(n.bounds, n.flows[i].end)
		}
		// Only the cutoff value (and the tie count below it) matter, so a
		// partial selection replaces the former full sort: the cutoff and
		// tie count are order statistics, identical whichever algorithm
		// finds them, so eviction — and every schedule after it — is
		// unchanged.
		selectKth(n.bounds, evict-1)
		cut := n.bounds[evict-1]
		ties := evict
		for _, e := range n.bounds[:evict] {
			if e < cut {
				ties--
			}
		}
		n.bounds = n.bounds[:0]
		keep = n.flows[:0]
		for i := range n.flows {
			e := n.flows[i].end
			if e < cut || (e == cut && ties > 0) {
				if e == cut {
					ties--
				}
				continue
			}
			if len(keep) < len(n.flows) {
				j := len(keep)
				n.flows[i], n.flows[j] = n.flows[j], n.flows[i]
			}
			keep = n.flows[:len(keep)+1]
		}
		tail = n.flows[len(keep):]
		for i := range tail {
			tail[i].links = tail[i].links[:0]
		}
		n.flows = keep
	}
	n.minEnd = maxTime
	for i := range n.flows {
		if n.flows[i].end < n.minEnd {
			n.minEnd = n.flows[i].end
		}
	}
	n.live = len(n.flows)

	// Compaction moved records, so rebuild the competitor index.
	n.clearRes()
	for j := range n.flows {
		for _, id := range n.flows[j].links {
			n.pushRes(id, int32(j))
		}
	}
}

// Transfer carries one message of the given size from src to dst,
// departing no earlier than now, and returns its schedule.  It does not
// block any process; callers advance their process (usually on its
// local clock alone) to End.
func (n *Net) Transfer(now sim.Time, src, dst, bytes int) Xmit {
	if src == dst {
		panic(fmt.Sprintf("flow: transfer to self at node %d", src))
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("flow: transfer of %d bytes", bytes))
	}
	n.prune()

	// Mark the new flow's resources: inj port, route links, ej port.
	n.ids = n.ids[:0]
	n.ids = append(n.ids, int32(n.InjID(src)))
	for _, l := range n.topo.Route(src, dst) {
		n.ids = append(n.ids, int32(l))
	}
	n.ids = append(n.ids, int32(n.EjID(dst)))
	for _, id := range n.ids {
		n.onRoute[id] = true
	}

	need := sim.Time(bytes) * n.ByteTime
	t0 := now + n.Startup

	// Collect the route-crossing competitors whose committed windows end
	// after admission.  A crosser only *contends* if its window opens
	// before the new flow's unstretched finish, t0+need: if every crosser
	// starts at or after that, the admission segment runs at full rate
	// and the flow is done before any of them arrive, so the uncontended
	// fast path is exact.  (Crossers that open later still feed the
	// allocation walk, since an admission stretched by an earlier
	// competitor can run into them.)
	n.comp = n.comp[:0]
	contended := false
	if len(n.seen) <= len(n.flows) {
		n.seen = append(n.seen, make([]int64, len(n.flows)+1-len(n.seen))...)
	}
	n.epoch++
	floor := n.floor
	for _, rid := range n.ids {
		prev := int32(-1)
		for e := n.resHead[rid]; e >= 0; {
			ent := &n.pool[e]
			nxt := ent.next
			fi := ent.flow
			fend := n.flows[fi].end
			if fend <= floor {
				// Settled for good (no future departure can precede the
				// floor): unlink so no later walk re-traverses it.  The
				// arena slot itself is reclaimed at the next rebuild.
				if prev < 0 {
					n.resHead[rid] = nxt
				} else {
					n.pool[prev].next = nxt
				}
				e = nxt
				continue
			}
			if fend > t0 {
				if n.seen[fi] != n.epoch {
					n.seen[fi] = n.epoch
					n.comp = append(n.comp, fi)
				}
			}
			prev = e
			e = nxt
		}
	}
	for _, ci := range n.comp {
		if n.flows[ci].start < t0+need {
			contended = true
			break
		}
	}

	var end sim.Time
	share, bottleneck := 1, int(n.ids[0])
	if !contended {
		// Fast path: sole user of every route resource until done.
		end = t0 + need
	} else {
		end, share, bottleneck = n.allocate(t0, need)
	}

	// Commit the new flow, recycling a retired record's slice if one is
	// available past the live prefix.
	var rec flowRec
	if cap(n.flows) > len(n.flows) {
		rec = n.flows[:len(n.flows)+1][len(n.flows)]
		rec.links = rec.links[:0]
	}
	rec.start, rec.end = now, end
	rec.links = append(rec.links, n.ids...)
	n.flows = append(n.flows[:len(n.flows)], rec)
	recIdx := int32(len(n.flows) - 1)
	for _, id := range n.ids {
		n.pushRes(id, recIdx)
	}
	if end < n.minEnd {
		n.minEnd = end
	}

	for _, id := range n.ids {
		n.onRoute[id] = false
	}

	n.Messages++
	n.Bytes += uint64(bytes)
	x := Xmit{
		Start:      now,
		End:        end,
		Latency:    n.Startup + need,
		Wait:       end - t0 - need,
		Share:      share,
		Bottleneck: bottleneck,
	}
	if n.Observer != nil {
		n.Observer(now, x, src, dst, bytes)
	}
	return x
}

// allocate walks the contended admission: within each segment between
// committed competitor arrivals/departures the new flow receives an
// equal share of its bottleneck resource, 1/k of nominal capacity with
// k-1 competitors there, so covering need units of contention-free
// transmission consumes need*k units of wall time.  The whole walk is
// one allocation recomputation — one model event — regardless of how
// many segments it spans.  It returns the finish time plus the share
// count and bottleneck resource of the admission segment.
//
// The walk is an incremental event sweep: per-route-resource competitor
// counts are seeded with the flows active at admission, then each
// boundary applies that competitor's arrival (+1 on its route-shared
// resources) or departure (-1), and only the route itself is rescanned
// for the new maximum.  Total cost is O(competitors·route + E log E +
// segments·route) instead of recounting every competitor per segment.
// The bottleneck on a tie is the first resource in route order with the
// maximal count.
func (n *Net) allocate(t0, need sim.Time) (end sim.Time, share, bottleneck int) {
	n.Recomputes++
	n.evs = n.evs[:0]
	for _, ci := range n.comp {
		f := &n.flows[ci]
		if f.start <= t0 {
			// Active for the admission segment.
			for _, id := range f.links {
				if n.onRoute[id] {
					n.cnt[id]++
				}
			}
		} else {
			n.evs = append(n.evs, segEvent{t: f.start, fi: ci, add: true})
		}
		// comp is prefiltered on end > t0, so every departure is a
		// future boundary.
		n.evs = append(n.evs, segEvent{t: f.end, fi: ci})
	}
	// The boundaries form a min-heap on t rather than a fully sorted run:
	// the sweep usually terminates within the first few segments (small
	// messages finish long before most committed departures), so heapify
	// at O(E) plus a log-cost pop per boundary actually crossed beats
	// paying E log E to sort boundaries the walk never reaches.  Equal
	// times may pop in any order: all events at one boundary are applied
	// before the next segment's counts are read, and adds/removes commute.
	evs := n.evs
	for i := len(evs)/2 - 1; i >= 0; i-- {
		siftDown(evs, i)
	}

	t := t0
	remaining := need
	for seg := 0; ; seg++ {
		// k = 1 (the new flow) + the heaviest per-resource competitor
		// count over the route during [t, next boundary).
		k := sim.Time(1)
		bn := int(n.ids[0])
		for _, id := range n.ids {
			if c := sim.Time(n.cnt[id]) + 1; c > k {
				k = c
				bn = int(id)
			}
		}
		if seg == 0 {
			share, bottleneck = int(k), bn
		}
		if len(evs) == 0 {
			// Past the last committed boundary nothing changes again.
			end = t + remaining*k
			break
		}
		next := evs[0].t
		if remaining*k <= next-t {
			end = t + remaining*k
			break
		}
		// Integer floor: under-credit the partial progress; the loss is
		// deterministic and at most k-1 byte-times per segment.
		remaining -= (next - t) / k
		t = next
		for len(evs) > 0 && evs[0].t == next {
			f := &n.flows[evs[0].fi]
			if evs[0].add {
				for _, id := range f.links {
					if n.onRoute[id] {
						n.cnt[id]++
					}
				}
			} else {
				for _, id := range f.links {
					if n.onRoute[id] {
						n.cnt[id]--
					}
				}
			}
			last := len(evs) - 1
			evs[0] = evs[last]
			evs = evs[:last]
			siftDown(evs, 0)
		}
	}
	for _, id := range n.ids {
		n.cnt[id] = 0
	}
	return end, share, bottleneck
}

// siftDown restores the min-heap-on-t property of evs for the subtree
// rooted at i.  Ties are not broken: equal-time boundaries commute (see
// allocate), so the heap needs no secondary key.
func siftDown(evs []segEvent, i int) {
	for {
		c := 2*i + 1
		if c >= len(evs) {
			return
		}
		if r := c + 1; r < len(evs) && evs[r].t < evs[c].t {
			c = r
		}
		if evs[i].t <= evs[c].t {
			return
		}
		evs[i], evs[c] = evs[c], evs[i]
		i = c
	}
}

// selectKth partially orders s so s[k] is the k-th smallest value
// (0-based) with every earlier element at most s[k] and every later one
// at least s[k]: a deterministic in-place quickselect with
// median-of-three pivoting.  prune uses it to find the eviction cutoff
// in O(n) expected time instead of sorting the whole scratch.
func selectKth(s []sim.Time, k int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		p := s[mid]
		i, j := lo, hi
		for i <= j {
			for s[i] < p {
				i++
			}
			for s[j] > p {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}
