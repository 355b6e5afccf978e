package apps

import (
	"math"
	"math/bits"
	"testing"

	"spasm/internal/app"
	"spasm/internal/mem"
)

// Every test here runs at fixed seeds: the statistics are deterministic,
// so a bound that holds once holds on every run.

// chiSquare is Pearson's statistic of counts against a flat expectation.
func chiSquare(counts []int) float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	want := float64(total) / float64(len(counts))
	x2 := 0.0
	for _, c := range counts {
		d := float64(c) - want
		x2 += d * d / want
	}
	return x2
}

// TestUniformStreamIsUniform holds the whole p64 medium workload — 64
// streams of 2,048 references — to the distribution its name promises:
// home nodes flat over the machine (63 degrees of freedom, 99.9 % critical
// value 103.44) and a write share of writePct.
func TestUniformStreamIsUniform(t *testing.T) {
	const P = 64
	u := lookupTraffic(t, "uniform", Medium, 1)
	u.Setup(&app.Ctx{P: P, Space: mem.NewSpace(P, 32)})
	homes := make([]int, P)
	refs, writes := 0, 0
	for id := 0; id < P; id++ {
		for cur := u.Start(id); ; {
			var r app.Ref
			var ok bool
			if r, cur, ok = u.Next(id, cur); !ok {
				break
			}
			homes[u.ctx.Space.Home(r.Addr)]++
			refs++
			if r.Write {
				writes++
			}
		}
	}
	if refs != P*u.refs {
		t.Fatalf("%d references, want %d", refs, P*u.refs)
	}
	x2 := chiSquare(homes)
	share := 100 * float64(writes) / float64(refs)
	t.Logf("home node chi-square %.1f over %d draws; write share %.2f %%", x2, refs, share)
	if x2 > 103.44 {
		t.Errorf("home node chi-square %.1f exceeds the 99.9 %% critical value 103.44", x2)
	}
	if math.Abs(share-writePct) > 1 {
		t.Errorf("write share %.2f %%, want %d ± 1", share, writePct)
	}
}

// TestPercentDrawIsFlat is the same test on the draw behind every
// write/hot-spot decision: below(100) over the same 64 × 2,048 draws (99
// degrees of freedom, 99.9 % critical value 148.23).
func TestPercentDrawIsFlat(t *testing.T) {
	buckets := make([]int, 100)
	for id := 0; id < 64; id++ {
		g := newRefGen(1, id)
		for i := 0; i < 2048; i++ {
			buckets[g.below(100)]++
		}
	}
	x2 := chiSquare(buckets)
	t.Logf("percent draw chi-square %.1f", x2)
	if x2 > 148.23 {
		t.Errorf("percent draw chi-square %.1f exceeds the 99.9 %% critical value 148.23", x2)
	}
}

// TestScaleIsUnbiased counts, exactly, the 64-bit words scale accepts
// for each value of a range that is not a power of two.  The words that
// multiply-shift maps to v are the interval [⌈v·2^64/n⌉, ⌈(v+1)·2^64/n⌉),
// one word longer for some v than for others — that is the bias.  Inside
// an interval the low product climbs by n a word, so only the first word
// can fall in the rejection class (low product < 2^64 mod n < n).  The
// test walks every interval, asks scale about the words at its edges, and
// requires ⌊2^64/n⌋ accepted words for every v and 2^64 mod n rejected in
// all.
func TestScaleIsUnbiased(t *testing.T) {
	for _, n := range []uint64{100, 3 << 10} {
		perValue := math.MaxUint64 / n // ⌊2^64/n⌋: n is not a power of two
		first := func(v uint64) uint64 {
			q, r := bits.Div64(v, 0, n)
			if r != 0 {
				q++
			}
			return q
		}
		var rejected uint64
		for v := uint64(0); v < n; v++ {
			lo, hi := first(v), uint64(math.MaxUint64)
			if v+1 < n {
				hi = first(v+1) - 1
			}
			size := hi - lo + 1
			for i, x := range []uint64{lo, lo + 1, hi} {
				got, ok := scale(x, n)
				if got != v {
					t.Fatalf("n=%d: word %#x maps to %d, want %d", n, x, got, v)
				}
				if !ok && i > 0 {
					t.Fatalf("n=%d v=%d: word %#x, past the interval's first, is rejected", n, v, x)
				}
				if !ok {
					rejected++
					size--
				}
			}
			if size != perValue {
				t.Fatalf("n=%d: %d accepted words map to %d, want %d", n, size, v, perValue)
			}
		}
		if want := -n % n; rejected != want {
			t.Errorf("n=%d: %d words rejected, want 2^64 mod n = %d", n, rejected, want)
		}
	}
}

// TestNeighbouringStreamsAreUnrelated covers the seeding: processor ids
// and run seeds are small consecutive integers, so streams seeded from
// neighbours are the ones that must not resemble each other.  The last
// pair is one the previous keying, Seed*1000 + id, mapped to one stream.
func TestNeighbouringStreamsAreUnrelated(t *testing.T) {
	type key struct {
		seed int64
		id   int
	}
	const draws = 4096
	words := func(k key) []float64 {
		g := newRefGen(k.seed, k.id)
		w := make([]float64, draws)
		for i := range w {
			w[i] = float64(g.word())
		}
		return w
	}
	for _, pair := range [][2]key{
		{{1, 0}, {1, 1}}, {{1, 1}, {1, 2}}, {{1, 255}, {1, 256}}, {{1, 65534}, {1, 65535}},
		{{1, 0}, {2, 0}}, {{2, 7}, {3, 7}}, {{0, 0}, {1, 0}}, {{1, 1}, {0, 0}},
		{{1, 1000}, {2, 0}},
	} {
		a, b := words(pair[0]), words(pair[1])
		if a[0] == b[0] {
			t.Errorf("%v and %v open with the same word", pair[0], pair[1])
		}
		var ma, mb float64
		for i := range a {
			ma += a[i] / draws
			mb += b[i] / draws
		}
		var sab, saa, sbb float64
		for i := range a {
			sab += (a[i] - ma) * (b[i] - mb)
			saa += (a[i] - ma) * (a[i] - ma)
			sbb += (b[i] - mb) * (b[i] - mb)
		}
		if r := sab / math.Sqrt(saa*sbb); math.Abs(r) >= 0.05 {
			t.Errorf("%v and %v correlate at %.3f over %d draws", pair[0], pair[1], r, draws)
		}
	}
}

func TestRefGenDoesNotAllocate(t *testing.T) {
	sink := 0
	if n := testing.AllocsPerRun(100, func() {
		g := newRefGen(1, 3)
		for i := 0; i < 256; i++ {
			sink += g.below(100)
		}
	}); n != 0 {
		t.Errorf("seeding and 256 draws allocate %v times", n)
	}
	_ = sink
}
