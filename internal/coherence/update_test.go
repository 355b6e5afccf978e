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

func updateEngine(p int, tr Transport) (*Engine, *mem.Space, *mem.Array) {
	eng, space, arr := testEngine(p, tr)
	eng.Protocol = Update
	return eng, space, arr
}

func TestUpdateProtocolParsing(t *testing.T) {
	got, err := ParseProtocol("update")
	if err != nil || got != Update {
		t.Errorf("ParseProtocol(update) = %v, %v", got, err)
	}
	if UpdateMsg.String() != "update" {
		t.Errorf("class name %q", UpdateMsg.String())
	}
	if UpdateMsg.MovesData() {
		t.Error("UpdateMsg must be coherence-maintenance (free on CLogP)")
	}
}

func TestUpdateSharersStayValid(t *testing.T) {
	// The defining property: after a write to a shared block, every
	// copy remains readable with NO further network traffic.
	tr := &flatTransport{delay: 100}
	eng, space, arr := updateEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[1], 1, addr)
		eng.Read(p, &r.Procs[2], 2, addr)
		eng.Write(p, &r.Procs[1], 1, addr) // update, not invalidate
		tr.log = nil
		eng.Read(p, &r.Procs[2], 2, addr) // must be a silent hit
	})
	if len(tr.log) != 0 {
		t.Errorf("post-update read cost messages: %v", tr.log)
	}
	b := space.BlockOf(addr)
	for _, n := range []int{1, 2} {
		if s := eng.caches[n].State(b); s != cache.UnOwned {
			t.Errorf("cache %d state = %v, want V", n, s)
		}
	}
	if run.Procs[2].Hits != 1 {
		t.Errorf("reader hits = %d", run.Procs[2].Hits)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUpdateSharedWriteSendsUpdates(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := updateEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo) // home 0
	drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[1], 1, addr)
		eng.Read(p, &r.Procs[2], 2, addr)
		eng.Read(p, &r.Procs[3], 3, addr)
		tr.log = nil
		eng.Write(p, &r.Procs[1], 1, addr)
	})
	// write-through to home, updates to sharers 2 and 3 (+acks), grant.
	want := "[update update inval-ack update inval-ack grant]"
	if fmt.Sprint(tr.log) != want {
		t.Errorf("update-write classes = %v, want %s", tr.log, want)
	}
}

func TestUpdateSoleCopyBecomesExclusive(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, space, arr := updateEngine(4, tr)
	lo, _ := arr.OwnerRange(2)
	addr := arr.At(lo)
	run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[0], 0, addr)
		eng.Write(p, &r.Procs[0], 0, addr) // sole sharer: exclusive upgrade
		tr.log = nil
		for i := 0; i < 5; i++ {
			eng.Write(p, &r.Procs[0], 0, addr) // private writes: free
		}
	})
	if len(tr.log) != 0 {
		t.Errorf("private writes cost messages: %v", tr.log)
	}
	b := space.BlockOf(addr)
	if s := eng.caches[0].State(b); s != cache.OwnedExclusive {
		t.Errorf("sole writer state = %v", s)
	}
	if run.Procs[0].Hits != 6 {
		t.Errorf("hits = %d", run.Procs[0].Hits)
	}
}

func TestUpdateWriteMissAllocatesAndUpdates(t *testing.T) {
	tr := &flatTransport{delay: 100}
	eng, _, arr := updateEngine(4, tr)
	lo, _ := arr.OwnerRange(0)
	addr := arr.At(lo)
	drive(t, 4, func(p *sim.Proc, r *stats.Run) {
		eng.Read(p, &r.Procs[2], 2, addr) // sharer
		tr.log = nil
		eng.Write(p, &r.Procs[3], 3, addr) // miss: fetch + update
	})
	// fetch: read-req + data-reply; then write-through + update + ack + grant
	want := "[read-req data-reply update update inval-ack grant]"
	if fmt.Sprint(tr.log) != want {
		t.Errorf("write-miss classes = %v, want %s", tr.log, want)
	}
}

func TestUpdateNeverSharedDirtyAndInvariantsHold(t *testing.T) {
	f := func(seed int64) bool {
		tr := &flatTransport{delay: 50}
		eng, _, arr := updateEngine(4, tr)
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

// TestUpdateVsInvalidateTradeoff: producer-consumer sharing favours
// update (consumers never re-miss); private write bursts favour
// invalidate.  Check both directions of the classic trade-off.
func TestUpdateVsInvalidateTradeoff(t *testing.T) {
	producerConsumer := func(proto Protocol) uint64 {
		tr := &flatTransport{delay: 100}
		eng, _, arr := testEngine(4, tr)
		eng.Protocol = proto
		run := drive(t, 4, func(p *sim.Proc, r *stats.Run) {
			lo, _ := arr.OwnerRange(0)
			addr := arr.At(lo)
			for round := 0; round < 10; round++ {
				eng.Write(p, &r.Procs[0], 0, addr) // producer
				for c := 1; c < 4; c++ {
					eng.Read(p, &r.Procs[c], c, addr) // consumers
				}
			}
		})
		return run.Count(func(q *stats.Proc) uint64 { return q.Misses })
	}
	if u, b := producerConsumer(Update), producerConsumer(Berkeley); u >= b {
		t.Errorf("producer-consumer: update misses %d not below berkeley %d", u, b)
	}
}
