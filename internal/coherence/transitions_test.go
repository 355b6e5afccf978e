package coherence

import (
	"fmt"
	"testing"

	"spasm/internal/cache"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// TestProtocolTransitionTable drives each protocol through the canonical
// sharing scenarios and asserts the exact resulting cache states on
// every node.  States: I = Invalid, V = UnOwned, SD = OwnedShared
// (Berkeley only), D = OwnedExclusive.
func TestProtocolTransitionTable(t *testing.T) {
	type op struct {
		node  int
		write bool
	}
	r := func(n int) op { return op{node: n} }
	w := func(n int) op { return op{node: n, write: true} }

	cases := []struct {
		name string
		ops  []op
		// expected states per protocol, nodes 1..3 (block homed at 0)
		berkeley string
		msi      string
		update   string
	}{
		{
			name:     "single read",
			ops:      []op{r(1)},
			berkeley: "V I I", msi: "V I I", update: "V I I",
		},
		{
			name:     "two readers",
			ops:      []op{r(1), r(2)},
			berkeley: "V V I", msi: "V V I", update: "V V I",
		},
		{
			name:     "cold write",
			ops:      []op{w(1)},
			berkeley: "D I I", msi: "D I I", update: "D I I",
		},
		{
			name:     "read then write (upgrade)",
			ops:      []op{r(1), w(1)},
			berkeley: "D I I", msi: "D I I", update: "D I I",
		},
		{
			name: "write invalidates/updates readers",
			ops:  []op{r(1), r(2), r(3), w(1)},
			// invalidation protocols kill the other copies; update
			// refreshes them in place.
			berkeley: "D I I", msi: "D I I", update: "V V V",
		},
		{
			name: "read from dirty",
			ops:  []op{w(1), r(2)},
			// Berkeley: owner supplies, keeps shared-dirty; MSI and
			// Update force a writeback and everyone is clean.
			berkeley: "SD V I", msi: "V V I", update: "V V I",
		},
		{
			name:     "migratory write-write",
			ops:      []op{w(1), w(2)},
			berkeley: "I D I", msi: "I D I", update: "V V I",
		},
		{
			name:     "dirty, read, write back by owner",
			ops:      []op{w(1), r(2), w(1)},
			berkeley: "D I I", msi: "D I I", update: "V V I",
		},
		{
			name:     "three-party migration",
			ops:      []op{w(1), w(2), w(3)},
			berkeley: "I I D", msi: "I I D", update: "V V V",
		},
	}

	protocols := []Protocol{Berkeley, MSI, Update}
	for _, tc := range cases {
		for _, proto := range protocols {
			proto := proto
			want := map[Protocol]string{Berkeley: tc.berkeley, MSI: tc.msi, Update: tc.update}[proto]
			t.Run(fmt.Sprintf("%s/%v", tc.name, proto), func(t *testing.T) {
				tr := &flatTransport{delay: 100}
				eng, space, arr := testEngine(4, tr)
				eng.Protocol = proto
				lo, _ := arr.OwnerRange(0)
				addr := arr.At(lo)
				drive(t, 4, func(p *sim.Proc, run *stats.Run) {
					for _, o := range tc.ops {
						if o.write {
							eng.Write(p, &run.Procs[o.node], o.node, addr)
						} else {
							eng.Read(p, &run.Procs[o.node], o.node, addr)
						}
					}
				})
				b := space.BlockOf(addr)
				got := fmt.Sprintf("%v %v %v",
					eng.caches[1].State(b), eng.caches[2].State(b), eng.caches[3].State(b))
				if got != want {
					t.Errorf("states = %q, want %q", got, want)
				}
				if err := eng.CheckInvariants(); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestProtocolsSequentialConsistencyOrdering: on every protocol, a write
// completes only after all stale copies are gone (invalidation) or
// refreshed (update) — modeled as the writer's transaction spanning the
// coherence actions.  Verify the requester's clock advances past the
// message schedule on the priced transport.
func TestWriteBlocksForCoherenceActions(t *testing.T) {
	for _, proto := range []Protocol{Berkeley, MSI, Update} {
		tr := &flatTransport{delay: 100}
		eng, _, arr := testEngine(4, tr)
		eng.Protocol = proto
		lo, _ := arr.OwnerRange(0)
		addr := arr.At(lo)
		var freeHit, sharedWrite sim.Time
		drive(t, 4, func(p *sim.Proc, run *stats.Run) {
			eng.Write(p, &run.Procs[1], 1, addr)
			t0 := p.Now()
			eng.Write(p, &run.Procs[1], 1, addr) // exclusive: free
			freeHit = p.Now() - t0
			eng.Read(p, &run.Procs[2], 2, addr)
			eng.Read(p, &run.Procs[3], 3, addr)
			t0 = p.Now()
			eng.Write(p, &run.Procs[1], 1, addr) // must settle 2 and 3
			sharedWrite = p.Now() - t0
		})
		if sharedWrite <= freeHit {
			t.Errorf("%v: shared write (%v) not above exclusive hit (%v)",
				proto, sharedWrite, freeHit)
		}
	}
}

var _ = mem.Block(0)
var _ = cache.Invalid
