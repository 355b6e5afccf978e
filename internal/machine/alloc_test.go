package machine

import (
	"testing"

	"spasm/internal/mem"
	"spasm/internal/network"
	"spasm/internal/sim"
)

// TestObservedXferZeroAllocs: showing a message to an observer costs no
// allocation on any tier — the probe observes every message of a
// profiled run, so a links slice that escapes (a local array handed to
// the observer) would allocate once per message.
func TestObservedXferZeroAllocs(t *testing.T) {
	const p = 64
	for _, kind := range []Kind{Flow, LogP, Target} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			m, err := New(Config{Kind: kind, Topology: "torus", P: p}, mem.NewSpace(p, 32))
			if err != nil {
				t.Fatal(err)
			}
			net := m.(Backend).Network()
			var seen, charged int
			net.Observe(func(now sim.Time, x network.Xmit, src, dst, bytes int, links []int) {
				seen++
				charged += len(links)
			})
			// Each sweep's messages depart together, so they contend;
			// the next sweep departs once they are all delivered.
			now := sim.Time(0)
			allocs := testing.AllocsPerRun(100, func() {
				net.Settle(now)
				end := now
				for src := 0; src < p; src += 7 {
					end = max(end, net.Xfer(now, src, (src+13)%p, 32).End)
				}
				now = end
			})
			if allocs != 0 {
				t.Errorf("an observed Xfer sweep on %v allocates %.1f times; want 0", kind, allocs)
			}
			if seen == 0 || (kind != LogP) != (charged > 0) {
				t.Errorf("%v: observer saw %d messages charged to %d links", kind, seen, charged)
			}
		})
	}
}
