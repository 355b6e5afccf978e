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

func TestProtocolParsing(t *testing.T) {
	for _, p := range []Protocol{Berkeley, MSI} {
		got, err := ParseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProtocol("mesif"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol name")
	}
}

func msiEngine(p int, tr Transport) (*Engine, *mem.Space, *mem.Array) {
	eng, space, arr := testEngine(p, tr)
	eng.Protocol = MSI
	return eng, space, arr
}

func TestMSIReadFromDirtyWritesBack(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, space, arr := msiEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo) // home = 2
	drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Write(p, &r.Procs[1], 1, addr) // node 1 dirty
		tr.log = nil
		eng.Read(p, &r.Procs[3], 3, addr)
	})
	// MSI: req -> fetch -> writeback to home -> memory supplies.
	if fmt.Sprint(tr.log) != "[read-req forward writeback data-reply]" {
		t.Errorf("MSI read-from-dirty classes = %v", tr.log)
	}
	b := space.BlockOf(addr)
	if s := eng.caches[1].State(b); s != cache.UnOwned {
		t.Errorf("previous owner state = %v, want V (clean shared)", s)
	}
	if s := eng.caches[3].State(b); s != cache.UnOwned {
		t.Errorf("requester state = %v, want V", s)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestMSISecondReadServedByMemory(t *testing.T) {
	// After the first read forced a writeback, further readers are
	// served by memory with no owner involvement.
	tr := &flatTransport{delay: 100}
	eng, _, arr := msiEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo)
	drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Write(p, &r.Procs[1], 1, addr)
		eng.Read(p, &r.Procs[3], 3, addr)
		tr.log = nil
		eng.Read(p, &r.Procs[0], 0, addr)
	})
	if fmt.Sprint(tr.log) != "[read-req data-reply]" {
		t.Errorf("memory-supplied read classes = %v", tr.log)
	}
}

func TestMSINeverCreatesSharedDirty(t *testing.T) {
	f := func(seed int64) bool {
		tr := &flatTransport{delay: 50}
		eng, _, arr := msiEngine(4, tr)
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		run := stats.NewRun(4)
		e.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 300; i++ {
				n := rng.Intn(4)
				idx := rng.Intn(arr.N)
				if rng.Intn(3) == 0 {
					eng.Write(p, &run.Procs[n], n, arr.At(idx))
				} else {
					eng.Read(p, &run.Procs[n], n, arr.At(idx))
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 4; n++ {
			bad := false
			eng.caches[n].ForEach(func(b mem.Block, s cache.State) {
				if s == cache.OwnedShared {
					bad = true
				}
			})
			if bad {
				return false
			}
		}
		return eng.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMSIWriteMissInvalidatesOwnerOnce(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, space, arr := msiEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo) // home = 0
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Write(p, &r.Procs[1], 1, addr) // 1 dirty
		tr.log = nil
		eng.Write(p, &r.Procs[2], 2, addr) // fetch-invalidate 1, then 2 dirty
	})
	// The owner must be invalidated in the fetch path, not again in
	// the sharer-invalidation loop: exactly one writeback, no inval
	// messages (1's sharer bit was cleared).
	if fmt.Sprint(tr.log) != "[write-req forward writeback data-reply]" {
		t.Errorf("MSI write-miss classes = %v", tr.log)
	}
	b := space.BlockOf(addr)
	if s := eng.caches[1].State(b); s != cache.Invalid {
		t.Errorf("old owner state = %v", s)
	}
	if s := eng.caches[2].State(b); s != cache.OwnedExclusive {
		t.Errorf("new owner state = %v", s)
	}
	if run.Procs[2].Invals != 1 {
		t.Errorf("invals = %d, want 1", run.Procs[2].Invals)
	}
}

// TestProtocolsSameHitMissBehaviorForPrivateData: for references with no
// sharing, Berkeley and MSI must behave identically.
func TestProtocolsSamePrivateBehavior(t *testing.T) {
	count := func(proto Protocol) uint64 {
		tr := &flatTransport{delay: 100}
		eng, _, arr := testEngine(4, tr)
		eng.Protocol = proto
		run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
			for n := 0; n < 4; n++ {
				lo, hi := arr.OwnerRange(n)
				for i := lo; i < hi && i < lo+20; i++ {
					eng.Write(p, &r.Procs[n], n, arr.At(i))
					eng.Read(p, &r.Procs[n], n, arr.At(i))
				}
			}
		})
		return run.Count(func(q *stats.Proc) uint64 { return q.Messages })
	}
	if b, m := count(Berkeley), count(MSI); b != m {
		t.Errorf("private-data traffic differs: berkeley=%d msi=%d", b, m)
	}
}

// TestProtocolTrafficDiffersUnderSharing: migratory sharing makes the
// two protocols take different message paths (Berkeley: cache-to-cache;
// MSI: writeback + memory supply) — the engine must actually be
// exercising two distinct protocols.
func TestProtocolTrafficDiffersUnderSharing(t *testing.T) {
	count := func(proto Protocol) string {
		tr := &flatTransport{delay: 100}
		eng, _, arr := testEngine(4, tr)
		eng.Protocol = proto
		drive(t, 4, func(p *sim.Proc, r *stats.Run) {
			lo, _ := arr.OwnerRange(3)
			addr := arr.At(lo)
			for turn := 0; turn < 6; turn++ {
				n := turn % 3
				eng.Read(p, &r.Procs[n], n, addr)
				eng.Write(p, &r.Procs[n], n, addr)
			}
		})
		return fmt.Sprint(tr.log)
	}
	if b, m := count(Berkeley), count(MSI); b == m {
		t.Error("Berkeley and MSI produced identical message sequences under migratory sharing")
	}
}
