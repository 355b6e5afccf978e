package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"spasm/internal/mem"
)

func TestDefaultGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Sets() != 1024 {
		t.Errorf("default sets = %d, want 1024 (64KB / (32B * 2))", cfg.Sets())
	}
	c := New(cfg)
	if c.Config() != cfg {
		t.Error("Config() mismatch")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{0, 32, 2},
		{64 * 1024, 0, 2},
		{64 * 1024, 32, 0},
		{100, 32, 2},         // not divisible
		{96 * 32 * 2, 32, 2}, // 96 sets: not a power of two
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestStateHelpers(t *testing.T) {
	if Invalid.Valid() || !UnOwned.Valid() {
		t.Error("Valid() wrong")
	}
	if UnOwned.Owned() || !OwnedShared.Owned() || !OwnedExclusive.Owned() {
		t.Error("Owned() wrong")
	}
	for s, want := range map[State]string{Invalid: "I", UnOwned: "V", OwnedShared: "SD", OwnedExclusive: "D"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if State(9).String() == "" {
		t.Error("unknown state string empty")
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 256, BlockBytes: 32, Assoc: 2}) // 4 sets
	if s := c.Access(5); s != Invalid {
		t.Errorf("cold access = %v", s)
	}
	c.Insert(5, UnOwned)
	if s := c.Access(5); s != UnOwned {
		t.Errorf("after insert = %v", s)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(Config{SizeBytes: 128, BlockBytes: 32, Assoc: 2}) // 2 sets
	// Blocks 0, 2, 4 all map to set 0.
	c.Insert(0, UnOwned)
	c.Insert(2, UnOwned)
	c.Access(0) // 0 is now MRU; 2 is LRU
	v, ev := c.Insert(4, UnOwned)
	if !ev || v.Block != 2 {
		t.Errorf("evicted %+v (ev=%v), want block 2", v, ev)
	}
	if c.State(0) != UnOwned || c.State(2) != Invalid || c.State(4) != UnOwned {
		t.Error("post-eviction states wrong")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d", c.Evictions)
	}
}

func TestInsertPrefersInvalidSlot(t *testing.T) {
	c := New(Config{SizeBytes: 128, BlockBytes: 32, Assoc: 2})
	c.Insert(0, UnOwned)
	c.Insert(2, OwnedExclusive)
	c.Invalidate(0)
	if _, ev := c.Insert(4, UnOwned); ev {
		t.Error("evicted despite an invalid slot")
	}
	if c.State(2) != OwnedExclusive {
		t.Error("resident line disturbed")
	}
}

func TestVictimStateReported(t *testing.T) {
	c := New(Config{SizeBytes: 128, BlockBytes: 32, Assoc: 2})
	c.Insert(0, OwnedExclusive)
	c.Insert(2, UnOwned)
	c.Access(2) // make 0 the LRU
	v, ev := c.Insert(4, UnOwned)
	if !ev || v.State != OwnedExclusive || v.Block != 0 {
		t.Errorf("victim = %+v", v)
	}
}

func TestSetStateAndInvalidate(t *testing.T) {
	c := New(DefaultConfig())
	c.Insert(7, UnOwned)
	c.SetState(7, OwnedExclusive)
	if c.State(7) != OwnedExclusive {
		t.Error("SetState ineffective")
	}
	if s := c.Invalidate(7); s != OwnedExclusive {
		t.Errorf("Invalidate returned %v", s)
	}
	if s := c.Invalidate(7); s != Invalid {
		t.Errorf("double Invalidate returned %v", s)
	}
	if c.State(7) != Invalid {
		t.Error("block still resident")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	c := New(DefaultConfig())
	c.Insert(1, UnOwned)
	for _, f := range []func(){
		func() { c.Insert(1, UnOwned) },    // duplicate insert
		func() { c.Insert(2, Invalid) },    // invalid insert
		func() { c.SetState(99, UnOwned) }, // absent block
		func() { c.SetState(1, Invalid) },  // invalid via SetState
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(DefaultConfig())
	c.Access(42)
	c.ForEach(func(b mem.Block, _ State) { t.Errorf("Access allocated a line for block %d", b) })
}

func TestStateDoesNotTouchLRU(t *testing.T) {
	c := New(Config{SizeBytes: 128, BlockBytes: 32, Assoc: 2})
	c.Insert(0, UnOwned)
	c.Insert(2, UnOwned) // 0 is LRU
	c.State(0)           // must NOT promote 0
	v, _ := c.Insert(4, UnOwned)
	if v.Block != 0 {
		t.Errorf("State() touched LRU: victim %d", v.Block)
	}
}

func TestForEachAndResident(t *testing.T) {
	c := New(DefaultConfig())
	blocks := []mem.Block{1, 2, 3, 7} // distinct sets: no evictions
	for _, b := range blocks {
		c.Insert(b, UnOwned)
	}
	seen := map[mem.Block]bool{}
	c.ForEach(func(b mem.Block, s State) { seen[b] = true })
	if len(seen) != len(blocks) {
		t.Errorf("seen %v, want %v", seen, blocks)
	}
}

// Property: a cache never holds two copies of the same block, never
// exceeds its associativity per set, and hits+misses equals accesses.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{SizeBytes: 512, BlockBytes: 32, Assoc: 2} // 8 sets
		c := New(cfg)
		accesses := uint64(0)
		for _, op := range ops {
			b := mem.Block(op % 64)
			switch rng.Intn(4) {
			case 0:
				accesses++
				if c.Access(b) == Invalid {
					c.Insert(b, UnOwned)
				}
			case 1:
				accesses++
				switch c.Access(b) {
				case Invalid:
					c.Insert(b, OwnedExclusive)
				default:
					c.SetState(b, OwnedExclusive)
				}
			case 2:
				c.Invalidate(b)
			default:
				accesses++
				c.Access(b)
			}
			// Invariant: no duplicate blocks.
			count := map[mem.Block]int{}
			c.ForEach(func(bb mem.Block, _ State) { count[bb]++ })
			for _, n := range count {
				if n > 1 {
					return false
				}
			}
			// Invariant: per-set occupancy <= associativity.
			perSet := map[uint64]int{}
			c.ForEach(func(bb mem.Block, _ State) { perSet[uint64(bb)%8]++ })
			for _, n := range perSet {
				if n > cfg.Assoc {
					return false
				}
			}
		}
		return c.Hits+c.Misses == accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: blocks mapping to different sets never evict each other.
func TestSetIsolationProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		c := New(Config{SizeBytes: 512, BlockBytes: 32, Assoc: 2})
		// Fill set 0 with blocks 0 and 8.
		c.Insert(0, UnOwned)
		c.Insert(8, UnOwned)
		for _, r := range raw {
			b := mem.Block(r%64 | 1) // odd blocks: never set 0 (8 sets)
			if uint64(b)%8 == 0 {
				continue
			}
			if c.State(b) == Invalid {
				c.Insert(b, UnOwned)
			}
		}
		return c.State(0) == UnOwned && c.State(8) == UnOwned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// refLine and refCache are the timestamp-LRU implementation this package
// shipped before a line became one word, kept verbatim as the reference
// model: 24 bytes a line, a global clock, victim = first invalid slot,
// else the smallest stamp.
type refLine struct {
	block mem.Block
	state State
	used  uint64 // LRU timestamp
}

type refCache struct {
	lines   []refLine
	assoc   uint64
	setMask uint64
	clock   uint64

	Hits      uint64
	Misses    uint64
	Evictions uint64
}

func newRef(cfg Config) *refCache {
	n := cfg.Sets()
	return &refCache{
		lines:   make([]refLine, n*cfg.Assoc),
		assoc:   uint64(cfg.Assoc),
		setMask: uint64(n - 1),
	}
}

func (c *refCache) set(b mem.Block) []refLine {
	i := (uint64(b) & c.setMask) * c.assoc
	return c.lines[i : i+c.assoc]
}

func (c *refCache) find(b mem.Block) *refLine {
	set := c.set(b)
	for i := range set {
		if set[i].state != Invalid && set[i].block == b {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) State(b mem.Block) State {
	if l := c.find(b); l != nil {
		return l.state
	}
	return Invalid
}

func (c *refCache) Access(b mem.Block) State {
	if l := c.find(b); l != nil {
		c.clock++
		l.used = c.clock
		c.Hits++
		return l.state
	}
	c.Misses++
	return Invalid
}

func (c *refCache) Insert(b mem.Block, s State) (victim Victim, evicted bool) {
	set := c.set(b)
	slot := -1
	for i := range set {
		if set[i].state == Invalid {
			slot = i
			break
		}
	}
	if slot < 0 {
		slot = 0
		for i := 1; i < len(set); i++ {
			if set[i].used < set[slot].used {
				slot = i
			}
		}
		victim = Victim{Block: set[slot].block, State: set[slot].state}
		evicted = true
		c.Evictions++
	}
	c.clock++
	set[slot] = refLine{block: b, state: s, used: c.clock}
	return victim, evicted
}

func (c *refCache) SetState(b mem.Block, s State) { c.find(b).state = s }

func (c *refCache) Invalidate(b mem.Block) State {
	l := c.find(b)
	if l == nil {
		return Invalid
	}
	s := l.state
	l.state = Invalid
	return s
}

func (c *refCache) ForEach(fn func(b mem.Block, s State)) {
	for i := range c.lines {
		if c.lines[i].state != Invalid {
			fn(c.lines[i].block, c.lines[i].state)
		}
	}
}

type resident struct {
	b mem.Block
	s State
}

func contents(forEach func(func(mem.Block, State))) []resident {
	var out []resident
	forEach(func(b mem.Block, s State) { out = append(out, resident{b, s}) })
	return out
}

// TestMatchesTimestampLRU replays over a million random operations per
// associativity against the reference model and requires identical return
// values, victims, counters and — slot for slot — contents.  The stream
// mixes uniform traffic with long runs that invalidate and refill one
// slot from the middle of the LRU order while the rest of the set is
// aged and un-aged around it but never touched: what walks an age that
// is not kept a permutation out of its field.
func TestMatchesTimestampLRU(t *testing.T) {
	states := []State{UnOwned, OwnedShared, OwnedExclusive}
	for _, assoc := range []int{1, 2, 4, 8} {
		const sets = 4
		cfg := Config{SizeBytes: sets * assoc * 32, BlockBytes: 32, Assoc: assoc}
		c, ref := New(cfg), newRef(cfg)
		rng := rand.New(rand.NewSource(int64(assoc)))
		span := sets * assoc * 3 // three blocks compete for every line
		ops := 0
		step := func(op int, b mem.Block) {
			t.Helper()
			ops++
			switch op {
			case 0, 1: // a reference: look up, fill on a miss
				got, want := c.Access(b), ref.Access(b)
				if got != want {
					t.Fatalf("assoc %d op %d: Access(%d) = %v, reference %v", assoc, ops, b, got, want)
				}
				if got == Invalid {
					s := states[rng.Intn(len(states))]
					gv, ge := c.Insert(b, s)
					wv, we := ref.Insert(b, s)
					if gv != wv || ge != we {
						t.Fatalf("assoc %d op %d: Insert(%d) evicted %+v %v, reference %+v %v", assoc, ops, b, gv, ge, wv, we)
					}
				}
			case 2:
				if got, want := c.State(b), ref.State(b); got != want {
					t.Fatalf("assoc %d op %d: State(%d) = %v, reference %v", assoc, ops, b, got, want)
				} else if got != Invalid {
					s := states[rng.Intn(len(states))]
					c.SetState(b, s)
					ref.SetState(b, s)
				}
			default:
				if got, want := c.Invalidate(b), ref.Invalidate(b); got != want {
					t.Fatalf("assoc %d op %d: Invalidate(%d) = %v, reference %v", assoc, ops, b, got, want)
				}
			}
		}
		compare := func() {
			t.Helper()
			got, want := contents(c.ForEach), contents(ref.ForEach)
			if len(got) != len(want) {
				t.Fatalf("assoc %d op %d: %d resident, reference %d", assoc, ops, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("assoc %d op %d: line %d holds %+v, reference %+v", assoc, ops, i, got[i], want[i])
				}
			}
			if c.Hits != ref.Hits || c.Misses != ref.Misses || c.Evictions != ref.Evictions {
				t.Fatalf("assoc %d op %d: counters %d/%d/%d, reference %d/%d/%d", assoc, ops,
					c.Hits, c.Misses, c.Evictions, ref.Hits, ref.Misses, ref.Evictions)
			}
		}
		for ops < 1_000_000 {
			for i := 0; i < 500; i++ {
				step(rng.Intn(4), mem.Block(rng.Intn(span)))
			}
			compare()
			// Invalidate-then-refill on one block, far more often
			// than the rank field has values.
			b := mem.Block(rng.Intn(span))
			near := (b + sets) % mem.Block(span) // same set
			for i := 0; i < 4*maxAssoc+rng.Intn(100); i++ {
				step(3, b)
				step(0, b)
				step(0, near)
			}
			compare()
		}
	}
}

func TestLineIsOneWord(t *testing.T) {
	if n := unsafe.Sizeof(line(0)); n != 8 {
		t.Errorf("a cache line is %d bytes, want 8", n)
	}
	// The paper's 2-way set is 16 bytes, so a 64-byte host line holds four.
	c := New(DefaultConfig())
	if n := uintptr(len(c.set(0))) * unsafe.Sizeof(c.lines[0]); n != 16 {
		t.Errorf("a set is %d bytes, want 16", n)
	}
}

func TestRankFieldBoundsAssoc(t *testing.T) {
	New(Config{SizeBytes: maxAssoc * 32, BlockBytes: 32, Assoc: maxAssoc}) // one set, every rank in use
	defer func() {
		if recover() == nil {
			t.Error("no panic for an associativity the rank field cannot order")
		}
	}()
	New(Config{SizeBytes: 2 * maxAssoc * 32, BlockBytes: 32, Assoc: 2 * maxAssoc})
}

// A full maxAssoc-way set uses every rank value; the victim must still be
// the least recently used line, and a block too wide for a line must be
// refused rather than aliased.
func TestWidestSetAndBlock(t *testing.T) {
	cfg := Config{SizeBytes: maxAssoc * 32, BlockBytes: 32, Assoc: maxAssoc}
	c, ref := New(cfg), newRef(cfg)
	for b := mem.Block(0); b < 3*maxAssoc; b++ {
		if c.Access(b/2) != ref.Access(b/2) {
			t.Fatalf("Access(%d) differs", b/2)
		}
		gv, ge := c.Insert(b+1000, OwnedShared)
		wv, we := ref.Insert(b+1000, OwnedShared)
		if gv != wv || ge != we {
			t.Fatalf("Insert(%d) evicted %+v %v, reference %+v %v", b+1000, gv, ge, wv, we)
		}
	}
	c.Insert(maxBlock, OwnedExclusive)
	if c.State(maxBlock) != OwnedExclusive {
		t.Error("widest block not resident")
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for a block wider than a line's block field")
		}
	}()
	c.Insert(maxBlock+1, UnOwned)
}
