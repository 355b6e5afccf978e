package apps

import (
	"fmt"
	"math"

	"spasm/internal/app"
	"spasm/internal/mem"
)

// EP is the NAS "embarrassingly parallel" kernel: each processor
// generates Gaussian deviates by the Marsaglia polar method and tallies
// them into ten annulus bins.  Communication happens only at the end: a
// lock-guarded accumulation of the global tallies, followed by the
// paper's condition-variable chain (each processor waits on a flag set
// by its predecessor, scans the global sums, and signals its successor),
// and a final barrier.
//
// EP has the suite's highest computation-to-communication ratio and
// strong communication locality (neighbour flags homed at the
// neighbour), making it the showcase for the g-parameter's pessimism
// (paper Figures 10 and 11).
type EP struct {
	// Pairs is the number of uniform pairs to draw.
	Pairs int
	// PairCycles is the instruction cost charged per pair (NAS EP
	// spends ~100 FLOPs per accepted pair on logs and square roots).
	PairCycles int64
	Seed       int64

	// Shared data.
	gsums *mem.Array // 10 bin counts + 2 coordinate sums
	lock  *app.SpinLock
	flags []*app.Flag
	bar   *app.Barrier

	// Host-side results.  The deviates never influence a simulated
	// timestamp, so each processor's share is drawn once, in Setup;
	// what Check tests is that merging the shares under the simulated
	// lock loses none of them.
	part    []epTally // each processor's share
	merged  epTally   // accumulated through the simulated merge
	want    epTally   // the shares summed sequentially: the oracle
	checked int       // processors that scanned the final sums
	tallies int       // calls of tally: one a processor
}

// epTally is one share of the result: ten annulus counts and the two
// coordinate sums.
type epTally struct {
	bins   [10]int64
	sx, sy float64
}

func (t *epTally) add(o *epTally) {
	for b := range o.bins {
		t.bins[b] += o.bins[b]
	}
	t.sx += o.sx
	t.sy += o.sy
}

// NewEP returns an EP instance at the given scale.
func NewEP(scale Scale, seed int64) app.Program {
	ep := &EP{PairCycles: 120, Seed: seed}
	switch scale {
	case Tiny:
		ep.Pairs = 1 << 8
	case Small:
		ep.Pairs = 1 << 14
	default:
		ep.Pairs = 1 << 17
	}
	return ep
}

func init() {
	register("ep", NewEP)
}

// Name implements app.Program.
func (e *EP) Name() string { return "ep" }

// Setup allocates the global sums, the merge lock, the signalling chain
// flags (flag i homed at node i, so signalling is neighbour-local), and
// the final barrier.
func (e *EP) Setup(c *app.Ctx) {
	e.gsums = c.Space.AllocAt("ep.gsums", 12, 8, 0)
	e.lock = c.NewLock("ep.lock", 0)
	e.flags = make([]*app.Flag, c.P)
	for i := 0; i < c.P; i++ {
		e.flags[i] = c.NewFlag(fmt.Sprintf("ep.flag%d", i), i)
	}
	e.bar = c.NewBarrier("ep.bar", c.P, 0)

	e.part = make([]epTally, c.P)
	for p := range e.part {
		lo, hi := share(e.Pairs, c.P, p)
		e.part[p] = e.tally(p, hi-lo)
		e.want.add(&e.part[p])
	}
}

// tally generates n Gaussian pairs for processor id and returns its bin
// counts and coordinate sums.  Each processor uses an independent seeded
// stream, as NAS EP prescribes.
func (e *EP) tally(id, n int) (out epTally) {
	e.tallies++
	rng := newRng(e.Seed*1000 + int64(id))
	defer putRng(rng)
	for k := 0; k < n; k++ {
		x := 2*rng.Float64() - 1
		y := 2*rng.Float64() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		out.sx += gx
		out.sy += gy
		l := int(math.Max(math.Abs(gx), math.Abs(gy)))
		if l > 9 {
			l = 9
		}
		out.bins[l]++
	}
	return out
}

// Body implements app.Program.
func (e *EP) Body(p *app.Proc) {
	lo, hi := share(e.Pairs, p.Ctx.P, p.ID)

	// Generation phase: pure computation on private data (the
	// deviates themselves were drawn in Setup).
	p.Phase("generate")
	n := hi - lo
	const batch = 64
	for done := 0; done < n; done += batch {
		b := min(batch, n-done)
		p.Compute(int64(b) * e.PairCycles)
	}

	// Merge phase: lock-guarded read-modify-write of the 12 global
	// words.
	p.Phase("merge")
	e.lock.Lock(p)
	for i := 0; i < 12; i++ {
		p.ReadElem(e.gsums, i)
		p.Compute(IntOpCycles)
		p.WriteElem(e.gsums, i)
	}
	e.merged.add(&e.part[p.ID])
	e.lock.Unlock(p)

	// Verification chain: processor i waits for its predecessor's
	// signal, scans the global sums, then signals its successor — the
	// paper's condition-variable idiom.
	p.Phase("chain")
	if p.ID == 0 {
		e.flags[0].Set(p)
	} else {
		e.flags[p.ID-1].Wait(p)
		for i := 0; i < 12; i++ {
			p.ReadElem(e.gsums, i)
		}
		e.checked++
		if p.ID < p.Ctx.P-1 {
			e.flags[p.ID].Set(p)
		}
	}
	e.bar.Arrive(p)
}

// Check verifies the merged tallies against the sequential oracle.
func (e *EP) Check() error {
	got, want := &e.merged, &e.want
	if got.bins != want.bins {
		return fmt.Errorf("ep: bins %v != oracle %v", got.bins, want.bins)
	}
	if math.Abs(got.sx-want.sx) > 1e-9 || math.Abs(got.sy-want.sy) > 1e-9 {
		return fmt.Errorf("ep: sums (%g,%g) != oracle (%g,%g)", got.sx, got.sy, want.sx, want.sy)
	}
	if want := len(e.flags) - 1; e.checked != want && len(e.flags) > 1 {
		return fmt.Errorf("ep: %d processors scanned, want %d", e.checked, want)
	}
	return nil
}
