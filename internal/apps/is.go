package apps

import (
	"fmt"

	"spasm/internal/app"
	"spasm/internal/mem"
)

// IS is the NAS integer-sort kernel: rank N keys drawn from [0, K) by
// counting sort.  Its communication pattern is regular but heavy, and it
// uses locks for mutual exclusion while merging histograms — the
// combination behind the paper's Figures 4, 6, 7 and 14.
//
// Phases (barrier-separated):
//
//  1. local histogram of the processor's own key block (local reads);
//  2. lock-guarded merge of local histograms into the shared bucket
//     array, processors starting at staggered chunks;
//  3. prefix sum of the bucket array (the serial part, processor 0);
//  4. ranking: every key requires a read of its bucket's global offset —
//     scattered, communication-heavy reads — and a local rank write.
type IS struct {
	N    int // keys
	K    int // key range / buckets
	Seed int64

	chunks int // lock granularity for the merge phase

	// Shared data.
	keys   *mem.Array
	counts *mem.Array
	ranks  *mem.Array
	locks  []*app.SpinLock
	bars   []*app.Barrier

	// Host-side values.  perHist and offset hold one row of K per
	// processor.
	keyv    []int64
	hist    []int64 // shared histogram under simulated locks
	perHist []int64 // per-processor local histograms
	prefix  []int64
	rankv   []int64
	offset  []int64 // per-processor next rank per bucket
	next    []int64 // processor 0's running offsets in the prefix phase
	sorted  []int64 // Check's scratch: the keys in rank order
}

// NewIS returns an IS instance at the given scale.
func NewIS(scale Scale, seed int64) app.Program {
	is := &IS{Seed: seed}
	switch scale {
	case Tiny:
		is.N, is.K = 1<<9, 1<<6
	case Small:
		is.N, is.K = 1<<13, 1<<9
	default:
		is.N, is.K = 1<<15, 1<<10
	}
	return is
}

func init() {
	register("is", NewIS)
}

// Name implements app.Program.
func (s *IS) Name() string { return "is" }

// Setup allocates keys (blocked), the shared bucket array, rank output,
// merge locks and phase barriers, and generates the keys.
func (s *IS) Setup(c *app.Ctx) {
	s.chunks = min(16, c.P*2)
	s.keys = c.Space.Alloc("is.keys", s.N, 8, mem.Blocked)
	s.counts = c.Space.Alloc("is.counts", s.K, 8, mem.Blocked)
	s.ranks = c.Space.Alloc("is.ranks", s.N, 8, mem.Blocked)
	for i := 0; i < s.chunks; i++ {
		s.locks = append(s.locks, c.NewLock(fmt.Sprintf("is.lock%d", i), i%c.P))
	}
	for i := 0; i < 3; i++ {
		s.bars = append(s.bars, c.NewBarrier(fmt.Sprintf("is.bar%d", i), c.P, i%c.P))
	}
	rng := newRng(s.Seed)
	defer putRng(rng)
	s.keyv = c.Host.Int64s(s.N)
	for i := range s.keyv {
		// NAS IS keys are the average of four uniforms (roughly
		// Gaussian over the range); keep that shape.
		s.keyv[i] = int64((rng.Intn(s.K) + rng.Intn(s.K) + rng.Intn(s.K) + rng.Intn(s.K)) / 4)
	}
	s.hist = c.Host.Int64s(s.K)
	s.prefix = c.Host.Int64s(s.K)
	s.rankv = c.Host.Int64s(s.N)
	s.perHist = c.Host.Int64s(c.P * s.K)
	s.offset = c.Host.Int64s(c.P * s.K)
	s.next = c.Host.Int64s(s.K)
	s.sorted = c.Host.Int64s(s.N)
}

// row returns processor q's row of a per-processor table.
func (s *IS) row(table []int64, q int) []int64 { return table[q*s.K : (q+1)*s.K] }

// Body implements app.Program.
func (s *IS) Body(p *app.Proc) {
	P := p.Ctx.P
	lo, hi := share(s.N, P, p.ID)

	// Phase 1: local histogram over the processor's own key block.
	p.Phase("histogram")
	p.ReadRange(s.keys, lo, hi)
	local := s.row(s.perHist, p.ID)
	for i := lo; i < hi; i++ {
		local[s.keyv[i]]++
	}
	p.Compute(int64(hi-lo) * (IntOpCycles + LoopCycles))

	// Phase 2: merge into the shared histogram, one lock-guarded chunk
	// at a time, starting at a staggered position to spread contention.
	p.Phase("merge")
	per := (s.K + s.chunks - 1) / s.chunks
	for c := 0; c < s.chunks; c++ {
		chunk := (c + p.ID) % s.chunks
		bLo := chunk * per
		bHi := min(bLo+per, s.K)
		s.locks[chunk].Lock(p)
		for b := bLo; b < bHi; b++ {
			if local[b] == 0 {
				continue
			}
			p.ReadElem(s.counts, b)
			s.hist[b] += local[b]
			p.Compute(IntOpCycles)
			p.WriteElem(s.counts, b)
		}
		s.locks[chunk].Unlock(p)
	}
	s.bars[0].Arrive(p)

	// Phase 3: prefix sum — the serial part, done by processor 0.
	p.Phase("prefix")
	if p.ID == 0 {
		var acc int64
		for b := 0; b < s.K; b++ {
			p.ReadElem(s.counts, b)
			s.prefix[b] = acc
			acc += s.hist[b]
			p.Compute(IntOpCycles)
			p.WriteElem(s.counts, b)
		}
		// Per-processor rank offsets (host bookkeeping mirroring
		// what each processor derives in phase 4).
		next := s.next
		copy(next, s.prefix)
		for q := 0; q < P; q++ {
			off, hist := s.row(s.offset, q), s.row(s.perHist, q)
			for b := 0; b < s.K; b++ {
				off[b] = next[b]
				next[b] += hist[b]
			}
		}
	}
	s.bars[1].Arrive(p)

	// Phase 4: rank every local key — a scattered read of the bucket
	// offsets for each key, then a local rank write.
	p.Phase("rank")
	off := s.row(s.offset, p.ID)
	for i := lo; i < hi; i++ {
		b := s.keyv[i]
		p.ReadElem(s.counts, int(b))
		s.rankv[i] = off[b]
		off[b]++
		p.Compute(IntOpCycles + LoopCycles)
		p.WriteElem(s.ranks, i)
	}
	s.bars[2].Arrive(p)
}

// Check verifies that the ranks form a permutation that sorts the keys.
func (s *IS) Check() error {
	// Keys are never negative, so -1 marks a rank no key has taken.
	sorted := s.sorted
	for i := range sorted {
		sorted[i] = -1
	}
	for i, r := range s.rankv {
		if r < 0 || r >= int64(s.N) {
			return fmt.Errorf("is: rank %d of key %d out of range", r, i)
		}
		if sorted[r] >= 0 {
			return fmt.Errorf("is: duplicate rank %d", r)
		}
		sorted[r] = s.keyv[i]
	}
	for i := 1; i < s.N; i++ {
		if sorted[i-1] > sorted[i] {
			return fmt.Errorf("is: keys not sorted at rank %d: %d > %d", i, sorted[i-1], sorted[i])
		}
	}
	return nil
}
