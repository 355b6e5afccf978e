// Package coherence implements a sequentially consistent, fully-mapped,
// directory-based Berkeley (ownership) invalidation protocol over the
// private caches of a CC-NUMA machine.
//
// The same protocol engine drives both machine characterizations that
// have caches:
//
//   - The *target* machine prices every protocol message (requests,
//     forwards, data replies, invalidations, acks, grants, writebacks)
//     on the detailed network fabric.
//   - The *LogP+cache* machine maintains exactly the same cache and
//     directory state machine but prices only the messages that move
//     data the requester could not obtain locally; coherence-maintenance
//     messages are free.  This realizes the paper's "ideal coherent
//     cache": the minimum network traffic any invalidation protocol
//     could hope to achieve.
//
// Sharing one engine guarantees the two machines have identical hit/miss
// and invalidation behaviour, which is the premise of the paper's
// locality-abstraction comparison.
package coherence

import (
	"fmt"

	"spasm/internal/cache"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Class labels a protocol message for transport pricing.
type Class int

const (
	// ReadReq asks the home node for a readable copy (data will flow).
	ReadReq Class = iota
	// WriteReq asks the home node for an exclusive copy (data will flow).
	WriteReq
	// UpgradeReq asks for ownership of a block already cached
	// (no data flows — pure coherence).
	UpgradeReq
	// Forward relays a request from the home node to the current owner.
	Forward
	// DataReply carries a cache block to the requester.
	DataReply
	// Inval invalidates a sharer's copy (pure coherence).
	Inval
	// InvalAck acknowledges an invalidation (pure coherence).
	InvalAck
	// Grant tells the requester all invalidations completed
	// (pure coherence).
	Grant
	// Nack tells the home node a forwarded request missed (the owner
	// evicted the block while the forward was in flight).
	Nack
	// UpdateMsg carries a written value to a sharer under the
	// write-update protocol (pure coherence: the sharer's copy stays
	// valid).
	UpdateMsg
	// Writeback flushes an owned victim block to its home memory
	// (pure coherence: any protocol must preserve the data, but it is
	// not a response to a memory request).
	Writeback
)

var classNames = [...]string{
	"read-req", "write-req", "upgrade-req", "forward", "data-reply",
	"inval", "inval-ack", "grant", "nack", "update", "writeback",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// MovesData reports whether the message class is part of satisfying a
// memory request with remote data (as opposed to pure coherence
// maintenance).  The LogP+cache transport prices exactly these classes.
func (c Class) MovesData() bool {
	switch c {
	case ReadReq, WriteReq, Forward, DataReply:
		return true
	}
	return false
}

// Delivery is the transport's schedule for one protocol message.
type Delivery struct {
	At      sim.Time // when the message is available at the destination
	Latency sim.Time // contention-free transmission component
	Wait    sim.Time // contention component
	Sent    bool     // false if the transport absorbed the message for free
}

// Transport prices protocol messages.  Implementations must be
// monotone: At >= now.
type Transport interface {
	Message(now sim.Time, src, dst, bytes int, class Class) Delivery
}

// Costs carries the non-network cost parameters of the memory system.
type Costs struct {
	// CacheHit is the time to satisfy a reference from the cache.
	CacheHit sim.Time
	// Mem is the home-node DRAM access time for a block.
	Mem sim.Time
	// CtrlBytes is the size of a control message (requests, invals,
	// acks, grants, nacks).
	CtrlBytes int
	// DataBytes is the size of a data message: a full cache block plus
	// header, capped at the paper's 32-byte maximum message size.
	DataBytes int
}

// DefaultCosts returns the study's cost parameters: 1-cycle cache hits,
// 10-cycle (300 ns) DRAM, 8-byte control and 32-byte data messages.
func DefaultCosts() Costs {
	return Costs{
		CacheHit:  sim.Cycles(1),
		Mem:       sim.Cycles(10),
		CtrlBytes: 8,
		DataBytes: 32,
	}
}

// entry is a fully-mapped directory entry.  The sharing set is
// limited-pointer style (see sharers.go): up to inlineSharers node ids
// inline, overflowing to a bitset slot in the engine's arena.  gen is
// the engine generation the entry was last stamped for; entries from an
// earlier generation are logically pristine and re-initialized lazily
// by dirAt, which is what makes Engine.Reset O(1) in directory size.
type entry struct {
	owner  int32                // cache owning the block (-1: memory is current)
	home   int32                // memoized home node of the block (-1: not yet computed)
	ovf    int32                // overflow bitset slot in Engine.ovfBits (-1: inline)
	gen    uint32               // engine generation this entry is valid for
	nsh    int16                // inline sharer count, or nshOverflow
	inline [inlineSharers]int16 // inline sharer ids, ascending
}

// Directory entries and their block locks live in fixed-size chunks
// indexed by block id rather than in maps: block ids are dense (the
// address space is compact from zero), so a chunked array gives O(1)
// lookups with no hashing and no per-entry allocation on the miss path.
// Chunks never move once allocated, which matters: the protocol holds
// *entry and *sim.Lock pointers across blocking operations, so the
// backing storage must be pointer-stable under growth.
const (
	dirChunkShift = 10 // blocks per chunk (1024)
	dirChunkSize  = 1 << dirChunkShift
	dirChunkMask  = dirChunkSize - 1
)

type dirChunk struct {
	entries [dirChunkSize]entry
	locks   [dirChunkSize]sim.Lock
}

// Engine is the coherence engine over P caches and their home memories.
type Engine struct {
	space  *mem.Space
	caches []*cache.Cache
	costs  Costs
	tr     Transport

	// Protocol selects the coherence protocol variant (Berkeley by
	// default, the paper's target).  Set it before the first access.
	Protocol Protocol

	dir []*dirChunk // chunked by block id; chunks allocated on first touch

	// gen is the engine's current generation.  A freshly allocated chunk
	// holds gen-0 entries; the engine starts at 1 and Reset bumps it, so
	// a stale entry is recognized (and re-stamped) by dirAt without ever
	// sweeping the directory.
	gen uint32

	// Overflow bitset arena for widely shared blocks: ovfBits[s] is one
	// slot of ovfWords uint64 words, ovfFree the recycled slot ids.
	ovfBits  [][]uint64
	ovfFree  []int32
	ovfWords int

	// snap is the sharer-snapshot scratch used by the invalidation and
	// update loops.  Safe as a single engine-wide buffer because no
	// coherence operation yields between taking a snapshot and finishing
	// its iteration, and snapshots never nest.
	snap []int32

	// Transactions counts misses serviced (reads + writes + upgrades).
	Transactions uint64
}

// NewEngine builds a coherence engine: one cache per node with the given
// geometry, directories at each block's home node, and the given message
// transport.
func NewEngine(space *mem.Space, cacheCfg cache.Config, costs Costs, tr Transport) *Engine {
	if space.P() > MaxP {
		// spec.Validate (machine.MaxPFor) rejects such configurations
		// before any engine is built; this is defense in depth.
		panic(fmt.Sprintf("coherence: %d nodes exceeds the coherent-machine limit of %d", space.P(), MaxP))
	}
	if cacheCfg.BlockBytes != space.BlockBytes() {
		panic(fmt.Sprintf("coherence: cache block %dB != space block %dB",
			cacheCfg.BlockBytes, space.BlockBytes()))
	}
	e := &Engine{
		space:    space,
		costs:    costs,
		tr:       tr,
		gen:      1,
		ovfWords: (space.P() + 63) / 64,
	}
	// Size the chunk index from the memory layout.  Applications allocate
	// in Setup, before the machine (and this engine) is built, so this
	// covers the whole footprint; chunkFor still grows the index if an
	// application allocates during its body.
	if sz := space.Size(); sz > 0 {
		nChunks := int(space.BlockOf(sz-1))>>dirChunkShift + 1
		e.dir = make([]*dirChunk, nChunks)
	}
	for i := 0; i < space.P(); i++ {
		e.caches = append(e.caches, cache.New(cacheCfg))
	}
	return e
}

// Reset rebinds the engine to space — typically the same *mem.Space
// after its own Reset and a fresh application Setup — and returns all
// coherence state to its post-NewEngine condition without reallocating
// the chunked directory.  Rather than sweeping every allocated chunk
// (O(directory size), which at 1024 procs dwarfs small runs), Reset
// bumps the engine generation: entries stamped for an older generation
// are logically pristine — dirAt re-initializes them (owner -1, no
// sharers, home -1, free block lock) on first touch, so a re-stamped
// entry is indistinguishable from a first-touch one.  The home memo is
// thereby cleared too, which matters because the new run may lay out
// memory differently.  Overflow bitset slots all return to the freelist:
// any entry referencing one is stale by generation.  The chunk index is
// re-sized to cover the new footprint; chunks beyond it are kept
// (harmlessly — they are only reachable via block ids the new layout
// never produces, and their entries are stale).
//
// The transport, costs, protocol, and cache geometry are construction
// parameters of the pooled context and are deliberately left alone.
func (e *Engine) Reset(space *mem.Space) {
	if space.P() != len(e.caches) {
		panic(fmt.Sprintf("coherence: Reset with %d nodes, engine has %d caches",
			space.P(), len(e.caches)))
	}
	if bb := e.caches[0].Config().BlockBytes; bb != space.BlockBytes() {
		panic(fmt.Sprintf("coherence: Reset cache block %dB != space block %dB",
			bb, space.BlockBytes()))
	}
	e.space = space
	e.Transactions = 0
	for _, c := range e.caches {
		c.Reset()
	}
	e.gen++
	e.ovfFree = e.ovfFree[:0]
	for i := range e.ovfBits {
		e.ovfFree = append(e.ovfFree, int32(i))
	}
	if sz := space.Size(); sz > 0 {
		nChunks := int(space.BlockOf(sz-1))>>dirChunkShift + 1
		for len(e.dir) < nChunks {
			e.dir = append(e.dir, nil)
		}
	}
}

// chunkFor returns block b's chunk, allocating it on first touch.
func (e *Engine) chunkFor(b mem.Block) *dirChunk {
	ci := int(b >> dirChunkShift)
	for ci >= len(e.dir) {
		e.dir = append(e.dir, nil)
	}
	ch := e.dir[ci]
	if ch == nil {
		// A zero chunk holds gen-0 entries; the engine generation is
		// always >= 1, so dirAt stamps each entry on first touch.
		ch = &dirChunk{}
		e.dir[ci] = ch
	}
	return ch
}

// dirAt returns block b's directory entry and lock, lazily
// re-initializing both if the entry is stale from an earlier generation
// (Reset bumps the generation instead of sweeping the directory).  A free
// lock is already pristine — no holder means no waiters, and a drained
// wait queue holds no *Proc — so it is kept, with its queue's capacity;
// only one a run left held is replaced.  Every mutating path must come
// through here — never index a chunk directly — or it would observe a
// previous run's state.
func (e *Engine) dirAt(b mem.Block) (*entry, *sim.Lock) {
	ch := e.chunkFor(b)
	i := b & dirChunkMask
	en := &ch.entries[i]
	if en.gen != e.gen {
		*en = entry{owner: -1, home: -1, ovf: -1, gen: e.gen}
		if ch.locks[i].Held() {
			ch.locks[i] = sim.Lock{}
		}
	}
	return en, &ch.locks[i]
}

func (e *Engine) entryFor(b mem.Block) *entry {
	en, _ := e.dirAt(b)
	return en
}

func (e *Engine) lockFor(b mem.Block) *sim.Lock {
	_, lk := e.dirAt(b)
	return lk
}

// lookup returns block b's directory entry without allocating, or nil if
// its chunk was never touched (or not touched this generation).
func (e *Engine) lookup(b mem.Block) *entry {
	ci := int(b >> dirChunkShift)
	if ci >= len(e.dir) || e.dir[ci] == nil {
		return nil
	}
	en := &e.dir[ci].entries[b&dirChunkMask]
	if en.gen != e.gen {
		return nil
	}
	return en
}

// homeOf returns (and memoizes) the home node of block b, replacing the
// binary search over memory regions on every miss with a one-time fill of
// the directory entry.
func (e *Engine) homeOf(b mem.Block, en *entry) int {
	if en.home < 0 {
		en.home = int32(e.space.Home(e.space.BlockBase(b)))
	}
	return int(en.home)
}

// send prices one message and accumulates its overheads into st.
func (e *Engine) send(st *stats.Proc, now sim.Time, src, dst, bytes int, class Class) sim.Time {
	d := e.tr.Message(now, src, dst, bytes, class)
	if d.Sent {
		st.Messages++
		st.NetBytes += uint64(bytes)
		st.Add(stats.Latency, d.Latency)
		st.Add(stats.Contention, d.Wait)
	}
	return d.At
}

// Read performs a shared-memory read by node n at addr on behalf of
// process p, blocking p for the full (sequentially consistent) duration.
func (e *Engine) Read(p *sim.Proc, st *stats.Proc, n int, addr mem.Addr) {
	st.Reads++
	b := e.space.BlockOf(addr)
	c := e.caches[n]
	if c.Access(b).Valid() {
		st.Hits++
		st.Add(stats.Memory, e.costs.CacheHit)
		p.Defer(e.costs.CacheHit)
		return
	}
	st.Misses++
	e.miss(p, st, n, b, false)
}

// Write performs a shared-memory write by node n at addr on behalf of
// process p.  Sequential consistency: p blocks until every stale copy
// has been invalidated and acknowledged.
func (e *Engine) Write(p *sim.Proc, st *stats.Proc, n int, addr mem.Addr) {
	st.Writes++
	b := e.space.BlockOf(addr)
	c := e.caches[n]
	s := c.Access(b)
	if s == cache.OwnedExclusive {
		st.Hits++
		st.Add(stats.Memory, e.costs.CacheHit)
		p.Defer(e.costs.CacheHit)
		return
	}
	if s.Valid() {
		st.Hits++ // data present; ownership must still be acquired
		if e.Protocol == Update {
			e.updateWrite(p, st, n, b)
		} else {
			e.upgrade(p, st, n, b)
		}
		return
	}
	st.Misses++
	if e.Protocol == Update {
		// Write-allocate under write-update: fetch a shared copy,
		// then propagate the write like a hit.
		e.miss(p, st, n, b, false)
		e.updateWrite(p, st, n, b)
		return
	}
	e.miss(p, st, n, b, true)
}

// miss services a read or write miss: obtain the block (from the owner's
// cache or home memory), for writes invalidate all other copies, fill the
// requester's cache, and update the directory.
func (e *Engine) miss(p *sim.Proc, st *stats.Proc, r int, b mem.Block, write bool) {
	lk := e.lockFor(b)
	if w := lk.Acquire(p); w > 0 {
		st.Add(stats.Contention, w) // directory serialization
	}
	defer lk.Release(p)
	e.Transactions++

	en := e.entryFor(b)
	h := e.homeOf(b, en)
	now := p.Now()
	msgs0 := st.Messages

	// Request leg to the home node.
	t := now
	if h != r {
		class := ReadReq
		if write {
			class = WriteReq
		}
		t = e.send(st, t, r, h, e.costs.CtrlBytes, class)
	}

	// Data leg: from the owning cache if one exists, else home memory.
	var tData sim.Time
	o := int(en.owner)
	if o >= 0 && o != r && e.caches[o].State(b).Owned() {
		switch e.Protocol {
		case MSI, Update:
			// Update also uses memory-current semantics: the dirty
			// (sole-copy) owner writes back and keeps a clean copy.
			tData = e.msiOwnerSupply(st, t, h, o, r, b, en, write)
		default:
			tData = e.berkeleyOwnerSupply(st, t, h, o, r, b, write)
		}
	} else {
		tData = e.memSupply(st, t, h, r)
	}

	// For writes, invalidate every other copy; the write completes only
	// after all acknowledgements (sequential consistency).
	tDone := tData
	if write {
		tAcks := e.invalidateSharers(st, t, h, r, b, en)
		if tAcks > t {
			// The home confirms completion once acks are in.
			if h != r {
				g := e.send(st, tAcks, h, r, e.costs.CtrlBytes, Grant)
				if g > tDone {
					tDone = g
				}
			} else if tAcks > tDone {
				tDone = tAcks
			}
		}
	}

	// Fill the requester's cache, writing back any displaced owned block.
	fill := cache.UnOwned
	if write {
		fill = cache.OwnedExclusive
	}
	tDone = e.fill(st, tDone, r, b, fill)

	// Directory update.
	if write {
		en.owner = int32(r)
		e.setSoleSharer(en, r)
	} else {
		e.addSharer(en, r)
	}

	if st.Messages > msgs0 {
		st.NetAccesses++
	}
	p.HoldUntil(tDone)
}

// upgrade services a write to a block the requester already caches in a
// non-exclusive state: pure coherence, no data movement.
func (e *Engine) upgrade(p *sim.Proc, st *stats.Proc, r int, b mem.Block) {
	lk := e.lockFor(b)
	if w := lk.Acquire(p); w > 0 {
		st.Add(stats.Contention, w)
	}
	defer lk.Release(p)
	e.Transactions++

	// The block may have been invalidated while we waited for the
	// directory: restart as a write miss (still under the lock).
	if !e.caches[r].State(b).Valid() {
		lk.Release(p)
		e.miss(p, st, r, b, true)
		lk.Acquire(p)
		return
	}

	en := e.entryFor(b)
	h := e.homeOf(b, en)
	now := p.Now()
	msgs0 := st.Messages

	t := now
	if h != r {
		t = e.send(st, t, r, h, e.costs.CtrlBytes, UpgradeReq)
	}
	tDone := t
	tAcks := e.invalidateSharers(st, t, h, r, b, en)
	if tAcks > t && h != r {
		tDone = e.send(st, tAcks, h, r, e.costs.CtrlBytes, Grant)
	} else if tAcks > tDone {
		tDone = tAcks
	}

	e.caches[r].SetState(b, cache.OwnedExclusive)
	en.owner = int32(r)
	e.setSoleSharer(en, r)

	if st.Messages > msgs0 {
		st.NetAccesses++
	}
	st.Add(stats.Memory, e.costs.CacheHit)
	tDone += e.costs.CacheHit
	p.HoldUntil(tDone)
}

// updateWrite services a write to a valid block under the write-update
// protocol.  With no other sharers the writer takes silent-at-the-cache
// exclusive ownership (one control round trip to the directory); with
// sharers the write is pushed through the home to every copy, which all
// stay valid — no one ever re-misses on this block, the protocol's
// defining property.
func (e *Engine) updateWrite(p *sim.Proc, st *stats.Proc, r int, b mem.Block) {
	lk := e.lockFor(b)
	if w := lk.Acquire(p); w > 0 {
		st.Add(stats.Contention, w)
	}
	defer lk.Release(p)
	e.Transactions++

	// The copy may have vanished while waiting (capacity eviction by
	// our own earlier transactions cannot happen here, but keep the
	// defensive re-check symmetrical with upgrade).
	if !e.caches[r].State(b).Valid() {
		lk.Release(p)
		e.miss(p, st, r, b, false)
		lk.Acquire(p)
	}
	e.updateWriteLocked(p, st, r, b)
}

// updateWriteLocked is updateWrite's body; the caller holds the block
// lock or accepts a fresh acquisition.
func (e *Engine) updateWriteLocked(p *sim.Proc, st *stats.Proc, r int, b mem.Block) {
	en := e.entryFor(b)
	h := e.homeOf(b, en)
	now := p.Now()
	msgs0 := st.Messages

	t := now
	if !e.hasOtherSharer(en, r) {
		// Sole copy: become exclusive after a directory round trip.
		if h != r {
			t = e.send(st, t, r, h, e.costs.CtrlBytes, UpgradeReq)
			t = e.send(st, t, h, r, e.costs.CtrlBytes, Grant)
		}
		if e.caches[r].State(b) != cache.OwnedExclusive {
			e.caches[r].SetState(b, cache.OwnedExclusive)
		}
		en.owner = int32(r)
		e.setSoleSharer(en, r)
	} else {
		// Write through to the home, then push the value to every
		// other sharer; all copies stay valid and memory is current.
		if h != r {
			t = e.send(st, t, r, h, e.costs.DataBytes, UpdateMsg)
		}
		st.Add(stats.Memory, e.costs.Mem)
		t += e.costs.Mem
		tAcks := t
		e.snap = e.appendSharers(e.snap[:0], en, r)
		for _, s32 := range e.snap {
			s := int(s32)
			if s == h {
				continue // the home's own cache is updated in place
			}
			if !e.caches[s].State(b).Valid() {
				// Stale sharer entry (silent eviction): clean it up.
				e.removeSharer(en, s)
				continue
			}
			tu := e.send(st, tAcks, h, s, e.costs.DataBytes, UpdateMsg)
			tAcks = e.send(st, tu, s, h, e.costs.CtrlBytes, InvalAck)
		}
		if tAcks > t {
			t = tAcks
		}
		if h != r && t > now {
			t = e.send(st, t, h, r, e.costs.CtrlBytes, Grant)
		}
		// The writer's copy stays a clean shared copy; memory owns.
		if e.caches[r].State(b) != cache.UnOwned {
			e.caches[r].SetState(b, cache.UnOwned)
		}
		en.owner = -1
	}

	if st.Messages > msgs0 {
		st.NetAccesses++
	}
	st.Add(stats.Memory, e.costs.CacheHit)
	t += e.costs.CacheHit
	p.HoldUntil(t)
}

// invalidateSharers sends invalidations from the home node to every
// sharer except the requester, sequentially (a blocking home
// controller), and returns the time the last acknowledgement reaches the
// home node.  Caches are invalidated as the messages arrive.
func (e *Engine) invalidateSharers(st *stats.Proc, t sim.Time, h, r int, b mem.Block, en *entry) sim.Time {
	tAcks := t
	e.snap = e.appendSharers(e.snap[:0], en, r)
	for _, s32 := range e.snap {
		s := int(s32)
		if s == h {
			// The home's own cache: invalidate locally, no traffic.
			e.caches[s].Invalidate(b)
			continue
		}
		ti := e.send(st, tAcks, h, s, e.costs.CtrlBytes, Inval)
		if e.caches[s].Invalidate(b).Valid() {
			st.Invals++
		}
		tAcks = e.send(st, ti, s, h, e.costs.CtrlBytes, InvalAck)
	}
	return tAcks
}

// berkeleyOwnerSupply models the Berkeley data leg: the owning cache
// supplies the block directly to the requester (forwarded via the home
// when the owner is a third node) and, on a read, keeps ownership in the
// shared-dirty state.  Memory is not updated.
func (e *Engine) berkeleyOwnerSupply(st *stats.Proc, t sim.Time, h, o, r int, b mem.Block, write bool) sim.Time {
	var tData sim.Time
	if o == h {
		// The home node's own cache owns the block.
		tData = t
		if r != h {
			tData = e.send(st, t, h, r, e.costs.DataBytes, DataReply)
		}
	} else {
		tf := e.send(st, t, h, o, e.costs.CtrlBytes, Forward)
		if e.caches[o].State(b).Owned() {
			tData = e.send(st, tf, o, r, e.costs.DataBytes, DataReply)
		} else {
			// The owner evicted the block while the forward was
			// in flight; it nacks and memory (now current after
			// the racing writeback) supplies.
			tn := e.send(st, tf, o, h, e.costs.CtrlBytes, Nack)
			return e.memSupply(st, tn, h, r)
		}
	}
	if !write {
		// Berkeley: the supplier keeps ownership, demoted to
		// shared-dirty.
		if e.caches[o].State(b) == cache.OwnedExclusive {
			e.caches[o].SetState(b, cache.OwnedShared)
		}
	}
	return tData
}

// msiOwnerSupply models the MSI data leg: the dirty owner writes the
// block back to its home (fetch or fetch-invalidate), memory becomes
// current, and the home supplies the requester.  On a read the previous
// owner keeps a clean shared copy; on a write it is invalidated here
// (and its sharer bit cleared so the invalidation loop skips it).
func (e *Engine) msiOwnerSupply(st *stats.Proc, t sim.Time, h, o, r int, b mem.Block, en *entry, write bool) sim.Time {
	if o != h {
		tf := e.send(st, t, h, o, e.costs.CtrlBytes, Forward)
		if e.caches[o].State(b).Owned() {
			t = e.send(st, tf, o, h, e.costs.DataBytes, Writeback)
			st.Writebacks++
		} else {
			// Raced with the owner's eviction writeback.
			t = e.send(st, tf, o, h, e.costs.CtrlBytes, Nack)
		}
	}
	if e.caches[o].State(b).Owned() {
		if write {
			e.caches[o].Invalidate(b)
			e.removeSharer(en, o)
			st.Invals++
		} else {
			e.caches[o].SetState(b, cache.UnOwned)
		}
	}
	en.owner = -1 // memory is current from here on
	return e.memSupply(st, t, h, r)
}

// memSupply models the home memory providing the block: a DRAM access at
// the home plus a data reply if the requester is remote.
func (e *Engine) memSupply(st *stats.Proc, t sim.Time, h, r int) sim.Time {
	st.Add(stats.Memory, e.costs.Mem)
	t += e.costs.Mem
	if h == r {
		return t
	}
	return e.send(st, t, h, r, e.costs.DataBytes, DataReply)
}

// fill inserts block b into cache r, handling victim writeback, and
// returns the completion time.
func (e *Engine) fill(st *stats.Proc, t sim.Time, r int, b mem.Block, s cache.State) sim.Time {
	v, evicted := e.caches[r].Insert(b, s)
	if !evicted {
		return t
	}
	ven := e.entryFor(v.Block)
	e.removeSharer(ven, r)
	if !v.State.Owned() {
		return t // clean victim: silent drop
	}
	// Owned victim: write the data back to its home memory.
	st.Writebacks++
	if ven.owner == int32(r) {
		ven.owner = -1 // memory becomes current
	}
	vh := e.homeOf(v.Block, ven)
	if vh != r {
		t = e.send(st, t, r, vh, e.costs.DataBytes, Writeback)
	}
	st.Add(stats.Memory, e.costs.Mem)
	return t + e.costs.Mem
}

// CheckInvariants verifies directory/cache consistency; tests call it
// after runs.  It returns the first violation found, or nil.
func (e *Engine) CheckInvariants() error {
	// 1. At most one cache holds a block in an owned state, and the
	//    directory's owner field matches it.
	owners := map[mem.Block]int{}
	for n, c := range e.caches {
		var err error
		n := n
		c.ForEach(func(b mem.Block, s cache.State) {
			if err != nil {
				return
			}
			if s.Owned() {
				if prev, dup := owners[b]; dup {
					err = fmt.Errorf("block %d owned by caches %d and %d", b, prev, n)
					return
				}
				owners[b] = n
				if en := e.lookup(b); en == nil || int(en.owner) != n {
					err = fmt.Errorf("block %d owned by cache %d but directory disagrees", b, n)
					return
				}
			}
			// 2. Every valid copy is covered by a directory sharer entry.
			if en := e.lookup(b); en == nil || !e.containsSharer(en, n) {
				err = fmt.Errorf("cache %d holds block %d without a directory sharer entry", n, b)
			}
		})
		if err != nil {
			return err
		}
	}
	// 3. An exclusively owned block has no other valid copies.
	for b, o := range owners {
		if e.caches[o].State(b) != cache.OwnedExclusive {
			continue
		}
		for n, c := range e.caches {
			if n != o && c.State(b).Valid() {
				return fmt.Errorf("block %d exclusive at %d but also valid at %d", b, o, n)
			}
		}
	}
	// 4. Directory owner fields point at caches that really own.
	for ci, ch := range e.dir {
		if ch == nil {
			continue
		}
		for i := range ch.entries {
			en := &ch.entries[i]
			if en.gen != e.gen || en.owner < 0 {
				continue // stale entries are logically pristine
			}
			b := mem.Block(ci<<dirChunkShift | i)
			o := int(en.owner)
			if !e.caches[o].State(b).Owned() {
				return fmt.Errorf("directory says %d owns block %d but its cache state is %v",
					o, b, e.caches[o].State(b))
			}
		}
	}
	return nil
}
