package coherence

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spasm/internal/cache"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// flatTransport prices every message with a fixed delay — the simplest
// "target-like" transport for protocol testing.
type flatTransport struct {
	delay sim.Time
	log   []Class
}

func (f *flatTransport) Message(now sim.Time, src, dst, bytes int, class Class) Delivery {
	f.log = append(f.log, class)
	return Delivery{At: now + f.delay, Latency: f.delay, Sent: true}
}

// freeCoherence prices only data-moving messages, like the LogP+cache
// machine.
type freeCoherence struct {
	delay sim.Time
	log   []Class
}

func (f *freeCoherence) Message(now sim.Time, src, dst, bytes int, class Class) Delivery {
	if !class.MovesData() {
		return Delivery{At: now}
	}
	f.log = append(f.log, class)
	return Delivery{At: now + f.delay, Latency: f.delay, Sent: true}
}

// smallCache keeps working sets tiny so tests can force evictions.
func smallCache() cache.Config {
	return cache.Config{SizeBytes: 128, BlockBytes: 32, Assoc: 2} // 2 sets, 4 lines
}

func testEngine(p int, tr Transport) (*Engine, *mem.Space, *mem.Array) {
	space := mem.NewSpace(p, 32)
	arr := space.Alloc("x", p*64, 8, mem.Blocked)
	return NewEngine(space, smallCache(), DefaultCosts(), tr), space, arr
}

// drive runs fn as a single simulated process and returns its stats.
func drive(t *testing.T, p int, fn func(*sim.Proc, *stats.Run)) *stats.Run {
	t.Helper()
	e := sim.NewEngine()
	run := stats.NewRun(p)
	e.Spawn("driver", func(pr *sim.Proc) { fn(pr, run) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return run
}

func TestReadHomeLocalNoTraffic(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := testEngine(4, tr)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo, _ := arr.OwnerRange(0)
		eng.Read(p, &r.Procs[0], 0, arr.At(lo)) // node 0 reads its own partition
	})
	if got := run.Procs[0].Messages; got != 0 {
		t.Errorf("local read sent %d messages", got)
	}
	if run.Procs[0].NetAccesses != 0 {
		t.Error("local read counted as network access")
	}
	if run.Procs[0].Misses != 1 {
		t.Errorf("misses = %d", run.Procs[0].Misses)
	}
	if run.Procs[0].Time[stats.Memory] == 0 {
		t.Error("no memory time charged")
	}
}

func TestReadRemoteMemorySupply(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := testEngine(4, tr)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo, _ := arr.OwnerRange(2)
		eng.Read(p, &r.Procs[0], 0, arr.At(lo)) // node 0 reads node 2's partition
	})
	st := &run.Procs[0]
	if st.Messages != 2 { // request + data reply
		t.Errorf("messages = %d, want 2 (%v)", st.Messages, tr.log)
	}
	if fmt.Sprint(tr.log) != "[read-req data-reply]" {
		t.Errorf("message classes = %v", tr.log)
	}
	if st.NetAccesses != 1 {
		t.Errorf("net accesses = %d", st.NetAccesses)
	}
	if st.Time[stats.Latency] != 200 {
		t.Errorf("latency = %v, want 200", st.Time[stats.Latency])
	}
}

func TestSecondReadHits(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := testEngine(4, tr)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo, _ := arr.OwnerRange(2)
		eng.Read(p, &r.Procs[0], 0, arr.At(lo))
		eng.Read(p, &r.Procs[0], 0, arr.At(lo))   // same block: hit
		eng.Read(p, &r.Procs[0], 0, arr.At(lo+1)) // same 32B block (8B elems): hit
	})
	st := &run.Procs[0]
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("hits=%d misses=%d", st.Hits, st.Misses)
	}
	if st.Messages != 2 {
		t.Errorf("messages = %d, spatial locality not captured", st.Messages)
	}
}

func TestOwnerSuppliesAndIsDemoted(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, space, arr := testEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo) // homed at node 2
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Write(p, &r.Procs[1], 1, addr) // node 1 becomes exclusive owner
		tr.log = nil
		eng.Read(p, &r.Procs[3], 3, addr) // node 3 reads: owner 1 must supply
	})
	_ = run
	if fmt.Sprint(tr.log) != "[read-req forward data-reply]" {
		t.Errorf("read-from-owner classes = %v", tr.log)
	}
	b := space.BlockOf(addr)
	if s := eng.caches[1].State(b); s != cache.OwnedShared {
		t.Errorf("supplier state = %v, want SD (Berkeley keeps ownership)", s)
	}
	if s := eng.caches[3].State(b); s != cache.UnOwned {
		t.Errorf("requester state = %v, want V", s)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, space, arr := testEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo) // homed at node 0
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[1], 1, addr)
		eng.Read(p, &r.Procs[2], 2, addr)
		eng.Read(p, &r.Procs[3], 3, addr)
		tr.log = nil
		eng.Write(p, &r.Procs[3], 3, addr) // upgrade: invalidate 1 and 2
	})
	b := space.BlockOf(addr)
	if s := eng.caches[3].State(b); s != cache.OwnedExclusive {
		t.Errorf("writer state = %v", s)
	}
	for _, n := range []int{1, 2} {
		if s := eng.caches[n].State(b); s != cache.Invalid {
			t.Errorf("cache %d state = %v, want I", n, s)
		}
	}
	// upgrade-req, then inval/ack per sharer, then grant
	if fmt.Sprint(tr.log) != "[upgrade-req inval inval-ack inval inval-ack grant]" {
		t.Errorf("upgrade classes = %v", tr.log)
	}
	if run.Procs[3].Invals != 2 {
		t.Errorf("invals = %d", run.Procs[3].Invals)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestWriteHitExclusiveIsFree(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := testEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Write(p, &r.Procs[1], 1, addr)
		tr.log = nil
		for i := 0; i < 10; i++ {
			eng.Write(p, &r.Procs[1], 1, addr)
		}
	})
	if len(tr.log) != 0 {
		t.Errorf("exclusive write hits sent messages: %v", tr.log)
	}
	if run.Procs[1].Hits != 10 {
		t.Errorf("hits = %d", run.Procs[1].Hits)
	}
}

func TestEvictionWritesBackOwnedBlock(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := testEngine(4, tr)
	// Node 0 writes blocks homed at node 2 until its tiny cache
	// (2 sets x 2 ways) must evict an exclusively owned block.
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		lo, _ := arr.OwnerRange(2)
		for i := 0; i < 5; i++ {
			eng.Write(p, &r.Procs[0], 0, arr.At(lo+i*4)) // one block each (4 x 8B)
		}
	})
	if run.Procs[0].Writebacks == 0 {
		t.Error("no writebacks despite capacity eviction of owned blocks")
	}
	found := false
	for _, c := range tr.log {
		if c == Writeback {
			found = true
		}
	}
	if !found {
		t.Errorf("no writeback message in %v", tr.log)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestReadAfterRemoteWriteMissesAgain(t *testing.T) {
	// The paper's CLogP example: both caches valid -> write by one
	// invalidates the other silently (free transport), and the
	// subsequent read by the other node IS a network access on both.
	tr := &freeCoherence{delay: 100}
	eng, _, arr := testEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo) // home 0
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[1], 1, addr)
		eng.Read(p, &r.Procs[2], 2, addr)
		tr.log = nil
		eng.Write(p, &r.Procs[1], 1, addr) // upgrade: free on CLogP
		if len(tr.log) != 0 {
			t.Errorf("upgrade cost messages on free-coherence transport: %v", tr.log)
		}
		eng.Read(p, &r.Procs[2], 2, addr) // must miss and fetch from owner 1
	})
	if run.Procs[1].NetAccesses == 0 {
		t.Error("initial remote read not counted")
	}
	// The re-read after invalidation crossed the network.
	if fmt.Sprint(tr.log) != "[read-req forward data-reply]" {
		t.Errorf("post-invalidation read classes = %v", tr.log)
	}
}

func TestUpgradeFreeOnFreeCoherenceTransport(t *testing.T) {
	tr := &freeCoherence{delay: 100}
	eng, _, arr := testEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[0], 0, addr)
		m0 := r.Procs[0].Messages
		eng.Write(p, &r.Procs[0], 0, addr) // upgrade, remote home
		if r.Procs[0].Messages != m0 {
			t.Error("upgrade sent messages on CLogP-style transport")
		}
		if r.Procs[0].NetAccesses != 1 {
			t.Errorf("net accesses = %d, want 1 (the read only)", r.Procs[0].NetAccesses)
		}
	})
	_ = run
}

func TestMessageClassProperties(t *testing.T) {
	for c := ReadReq; c <= Writeback; c++ {
		if c.String() == "" {
			t.Errorf("class %d has empty name", c)
		}
	}
	if Class(99).String() == "" {
		t.Error("unknown class empty name")
	}
	wantData := map[Class]bool{ReadReq: true, WriteReq: true, Forward: true, DataReply: true}
	for c := ReadReq; c <= Writeback; c++ {
		if c.MovesData() != wantData[c] {
			t.Errorf("%v.MovesData() = %v", c, c.MovesData())
		}
	}
}

func TestEngineValidation(t *testing.T) {
	space := mem.NewSpace(4, 32)
	mustPanic(t, func() {
		NewEngine(space, cache.Config{SizeBytes: 128, BlockBytes: 64, Assoc: 2},
			DefaultCosts(), &flatTransport{})
	})
	big := mem.NewSpace(MaxP+1, 32)
	mustPanic(t, func() {
		NewEngine(big, smallCache(), DefaultCosts(), &flatTransport{})
	})
}

// TestIdenticalCacheBehaviorAcrossTransports verifies the paper's core
// premise: the target machine and the LogP+cache machine have the SAME
// hit/miss and invalidation behaviour, because they share one protocol
// state machine — only message pricing differs.
func TestIdenticalCacheBehaviorAcrossTransports(t *testing.T) {
	f := func(seed int64) bool {
		const p = 4
		runOne := func(tr Transport) []uint64 {
			eng, _, arr := testEngine(p, tr)
			e := sim.NewEngine()
			run := stats.NewRun(p)
			rng := rand.New(rand.NewSource(seed))
			type op struct {
				node  int
				idx   int
				write bool
			}
			ops := make([]op, 300)
			for i := range ops {
				ops[i] = op{node: rng.Intn(p), idx: rng.Intn(arr.N), write: rng.Intn(3) == 0}
			}
			e.Spawn("driver", func(pr *sim.Proc) {
				for _, o := range ops {
					if o.write {
						eng.Write(pr, &run.Procs[o.node], o.node, arr.At(o.idx))
					} else {
						eng.Read(pr, &run.Procs[o.node], o.node, arr.At(o.idx))
					}
				}
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if err := eng.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			var sig []uint64
			for n := 0; n < p; n++ {
				sig = append(sig, run.Procs[n].Hits, run.Procs[n].Misses, run.Procs[n].Invals)
			}
			return sig
		}
		a := runOne(&flatTransport{delay: 100})
		b := runOne(&freeCoherence{delay: 100})
		return fmt.Sprint(a) == fmt.Sprint(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentTransactionsKeepInvariants stresses the engine with
// multiple simulated processors racing on a small shared array.
func TestConcurrentTransactionsKeepInvariants(t *testing.T) {
	f := func(seed int64) bool {
		const p = 8
		tr := &flatTransport{delay: 50}
		space := mem.NewSpace(p, 32)
		arr := space.Alloc("x", 64, 8, mem.Interleaved)
		eng := NewEngine(space, smallCache(), DefaultCosts(), tr)
		e := sim.NewEngine()
		run := stats.NewRun(p)
		for n := 0; n < p; n++ {
			n := n
			rng := rand.New(rand.NewSource(seed + int64(n)))
			e.Spawn(fmt.Sprintf("p%d", n), func(pr *sim.Proc) {
				for i := 0; i < 100; i++ {
					idx := rng.Intn(arr.N)
					if rng.Intn(2) == 0 {
						eng.Write(pr, &run.Procs[n], n, arr.At(idx))
					} else {
						eng.Read(pr, &run.Procs[n], n, arr.At(idx))
					}
					pr.Hold(sim.Time(rng.Intn(100)))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return eng.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
