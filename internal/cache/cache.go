// Package cache implements the private per-node cache of the paper's
// architectural characterization: 64 KB, 2-way set-associative, 32-byte
// blocks, with the line states of the Berkeley ownership protocol.
//
// The same cache array serves both the target machine (where protocol
// actions cost network messages) and the LogP+cache machine (where the
// state machine is maintained but coherence actions are free), so the two
// machines have *identical* hit/miss behaviour by construction — exactly
// the property the paper's locality abstraction relies on.
package cache

import (
	"fmt"

	"spasm/internal/mem"
)

// State is a Berkeley-protocol cache-line state.
type State uint8

const (
	// Invalid: the line holds no valid copy.
	Invalid State = iota
	// UnOwned (Berkeley "Valid"): a clean shared copy; memory or some
	// owner holds the authoritative value.
	UnOwned
	// OwnedShared (Berkeley "Shared-Dirty"): this cache owns the
	// block — it must supply data and write back on eviction — but
	// other caches may hold UnOwned copies.
	OwnedShared
	// OwnedExclusive (Berkeley "Dirty"): this cache owns the only
	// copy and may write without any coherence action.
	OwnedExclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case UnOwned:
		return "V"
	case OwnedShared:
		return "SD"
	case OwnedExclusive:
		return "D"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Owned reports whether the state carries ownership (the obligation to
// supply data and write back on eviction).
func (s State) Owned() bool { return s == OwnedShared || s == OwnedExclusive }

// Valid reports whether the state holds a readable copy.
func (s State) Valid() bool { return s != Invalid }

// Config describes cache geometry.
type Config struct {
	SizeBytes  int // total capacity
	BlockBytes int // line size
	Assoc      int // set associativity
}

// DefaultConfig is the paper's cache: 64 KB, 2-way, 32-byte blocks.
func DefaultConfig() Config {
	return Config{SizeBytes: 64 * 1024, BlockBytes: 32, Assoc: 2}
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Assoc) }

func (c Config) validate() {
	if c.SizeBytes <= 0 || c.BlockBytes <= 0 || c.Assoc <= 0 {
		panic(fmt.Sprintf("cache: non-positive geometry %+v", c))
	}
	if c.Assoc > maxAssoc {
		panic(fmt.Sprintf("cache: %d-way sets exceed the %d ways a line's rank field orders", c.Assoc, maxAssoc))
	}
	sets := c.Sets()
	if sets*c.BlockBytes*c.Assoc != c.SizeBytes {
		panic(fmt.Sprintf("cache: size %d not divisible into %d-way sets of %d-byte blocks",
			c.SizeBytes, c.Assoc, c.BlockBytes))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets is not a power of two", sets))
	}
}

// A line is one word: the block number above an eight-bit tail holding the
// Berkeley state (bits 6-7) and the line's LRU rank within its set (bits
// 0-5; 0 is the most recently used).  The ranks of a set's valid lines are
// always a permutation of 0..valid-1, so the order they encode is exactly
// the order of last use and the all-valid set's victim is the line of rank
// Assoc-1.  An invalid line is the zero word.  At the paper's geometry a
// set is 16 bytes: four sets share a 64-byte host line and a lookup
// touches one.
type line uint64

const (
	rankBits   = 6
	stateShift = rankBits
	blockShift = 8
	rankMask   = 1<<rankBits - 1
	stateMask  = 3 << stateShift
	firstValid = 1 << stateShift // smallest tail of a valid line
	tailSpan   = 1 << blockShift

	maxAssoc = 1 << rankBits                     // ways the rank field can order
	maxBlock = mem.Block(1)<<(64-blockShift) - 1 // 2^61 bytes of 32-byte blocks
)

func pack(b mem.Block, s State) line { return line(b)<<blockShift | line(s)<<stateShift }

func (l line) block() mem.Block { return mem.Block(l >> blockShift) }
func (l line) state() State     { return State(l >> stateShift & 3) }
func (l line) rank() line       { return l & rankMask }
func (l line) valid() bool      { return l&stateMask != 0 }

// Cache is one node's private cache.  Lines are stored as one flat array
// in set-major order: set s occupies lines[s*assoc : (s+1)*assoc].  The
// flat layout drops the per-set slice headers of a [][]line and keeps a
// set's lines contiguous, so a lookup is one bounds-checked subslice of a
// single allocation.
type Cache struct {
	cfg     Config
	lines   []line
	assoc   uint64
	setMask uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// New returns an empty cache with the given geometry.
func New(cfg Config) *Cache {
	cfg.validate()
	n := cfg.Sets()
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, n*cfg.Assoc),
		assoc:   uint64(cfg.Assoc),
		setMask: uint64(n - 1),
	}
}

// Reset returns the cache to its post-New state in place: every line
// Invalid and all statistics at zero.  The flat line array — the bulk of
// a machine's construction cost — is kept and cleared rather than
// reallocated, and a cleared line is indistinguishable from a freshly
// made one, so a reset cache replays a reference stream with the exact
// hit/miss/eviction sequence of a fresh cache.
func (c *Cache) Reset() {
	clear(c.lines)
	c.Hits = 0
	c.Misses = 0
	c.Evictions = 0
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

func (c *Cache) set(b mem.Block) []line {
	i := (uint64(b) & c.setMask) * c.assoc
	return c.lines[i : i+c.assoc]
}

// find returns the valid line of set holding b, or nil.  A line matches
// when it differs from b's packed word only in the tail and that tail is
// a valid line's: one subtraction and one compare.
func find(set []line, b mem.Block) *line {
	key := line(b) << blockShift
	for i, l := range set {
		if (l^key)-firstValid < tailSpan-firstValid {
			return &set[i]
		}
	}
	return nil
}

// State returns the state of block b (Invalid if not cached).  It does
// not touch LRU state.
func (c *Cache) State(b mem.Block) State {
	if l := find(c.set(b), b); l != nil {
		return l.state()
	}
	return Invalid
}

// Access looks up block b for a reference, updating LRU order and
// hit/miss statistics.  It returns the current state (Invalid on a miss).
func (c *Cache) Access(b mem.Block) State {
	set := c.set(b)
	l := find(set, b)
	if l == nil {
		c.Misses++
		return Invalid
	}
	c.Hits++
	hit := *l
	if r := hit.rank(); r != 0 {
		// Every line used more recently ages by one; the hit line
		// becomes the most recent.
		for j, o := range set {
			if o.valid() && o.rank() < r {
				set[j] = o + 1
			}
		}
		*l = hit &^ rankMask
	}
	return hit.state()
}

// Victim describes a block displaced by Insert.
type Victim struct {
	Block mem.Block
	State State
}

// Insert fills block b with the given state (which must be valid),
// evicting the LRU line of the set if necessary.  It returns the evicted
// block, if any.  Inserting a block that is already present panics:
// callers must use SetState for state changes.
func (c *Cache) Insert(b mem.Block, s State) (victim Victim, evicted bool) {
	if s == Invalid {
		panic("cache: Insert with Invalid state")
	}
	if b > maxBlock {
		panic(fmt.Sprintf("cache: block %d does not fit a line", b))
	}
	// One pass notes the first invalid slot and ages the valid lines,
	// bar the one of rank Assoc-1: only a full set has it, and it leaves.
	set := c.set(b)
	slot, lruSlot := -1, 0
	lru := line(len(set) - 1)
	for i, l := range set {
		switch {
		case !l.valid():
			if slot < 0 {
				slot = i
			}
		case l.block() == b:
			panic(fmt.Sprintf("cache: Insert of resident block %d", b))
		case l.rank() == lru:
			lruSlot = i
		default:
			set[i] = l + 1
		}
	}
	if slot < 0 {
		slot = lruSlot
		victim = Victim{Block: set[slot].block(), State: set[slot].state()}
		evicted = true
		c.Evictions++
	}
	set[slot] = pack(b, s)
	return victim, evicted
}

// SetState changes the state of a resident block; it panics if the block
// is not resident or the new state is Invalid (use Invalidate).
func (c *Cache) SetState(b mem.Block, s State) {
	if s == Invalid {
		panic("cache: SetState to Invalid; use Invalidate")
	}
	l := find(c.set(b), b)
	if l == nil {
		panic(fmt.Sprintf("cache: SetState of absent block %d", b))
	}
	*l = *l&^stateMask | line(s)<<stateShift
}

// Invalidate removes block b, returning its previous state (Invalid if
// it was not resident — invalidations of already-evicted blocks are
// normal under a directory with stale sharer bits).
func (c *Cache) Invalidate(b mem.Block) State {
	set := c.set(b)
	l := find(set, b)
	if l == nil {
		return Invalid
	}
	gone := *l
	*l = 0
	// Close the gap in the ranks: every line used less recently than
	// the one removed moves up one.
	for j, o := range set {
		if o.rank() > gone.rank() {
			set[j] = o - 1
		}
	}
	return gone.state()
}

// ForEach calls fn for every valid line, in set order.
func (c *Cache) ForEach(fn func(b mem.Block, s State)) {
	for _, l := range c.lines {
		if l.valid() {
			fn(l.block(), l.state())
		}
	}
}
