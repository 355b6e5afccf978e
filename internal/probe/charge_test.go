package probe

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"spasm/internal/app"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// TestChargeMatchesReference drives the Profiler and the reference
// accumulator with the same synthetic transmissions — spans of no
// length, spans that start epochs after their departure, spans reaching
// past the profile's capacity so that a rescale lands between their
// pieces — under tight caps, and holds the finished profiles and the
// OnEpoch sequences to byte equality.  A fabric never books overlapping
// circuits on one link, and spans rarely outrun the epoch budget; this
// test does both.
func TestChargeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		maxEpochs, maxLinks, numLinks := 2+rng.Intn(7), 1+rng.Intn(8), 4+rng.Intn(40)
		var got, want []EpochEvent
		pr := budgetProfiler(0, maxLinks, numLinks)
		pr.maxEpochs = maxEpochs
		pr.cfg.OnEpoch = func(ev EpochEvent) { got = append(got, ev) }
		ref := newReference(func(ev EpochEvent) { want = append(want, ev) }, maxEpochs, maxLinks)
		ref.numLinks = numLinks
		run := &stats.Run{}
		pr.run, ref.run = run, run

		now := sim.Time(0)
		for n := 0; n < 40; n++ {
			now += sim.Time(rng.Intn(3)) * DefaultEpoch / 2
			pr.tick(now)
			ref.tick(now)
			start := now + sim.Time(rng.Intn(3))*sim.Time(rng.Intn(int(DefaultEpoch)))
			end := start
			switch rng.Intn(4) {
			case 0: // within an epoch or two
				end += sim.Time(rng.Intn(int(DefaultEpoch)))
			case 1: // across several, often past the capacity
				end += sim.Time(rng.Intn(int(DefaultEpoch) * 4 * maxEpochs))
			}
			if rng.Intn(3) == 0 {
				x := network.Xmit{Start: start, End: end, Wait: end - start}
				bottleneck := []int{rng.Intn(numLinks)}
				pr.xmit(now, x, 0, 1, 8, bottleneck)
				ref.xmit(now, x, 0, 1, 8, bottleneck)
				continue
			}
			route := rng.Perm(numLinks)[:1+rng.Intn(min(4, numLinks))]
			x := network.Xmit{Start: start, End: end, Wait: start - now}
			pr.xmit(now, x, 0, 1, 32, route)
			ref.xmit(now, x, 0, 1, 32, route)
			run.Total = max(run.Total, end, now)
		}
		res := &app.Result{Program: "synthetic"}
		pr.Finish(res)
		ref.Finish(res)
		var a, b bytes.Buffer
		pr.Profile().Encode(&a)
		ref.Profile().Encode(&b)
		ga, _ := json.Marshal(got)
		wa, _ := json.Marshal(want)
		if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(ga, wa) {
			t.Fatalf("trial %d (epochs %d, links %d of %d): profile %v, events %v; reference %v, %v",
				trial, maxEpochs, maxLinks, numLinks, pr.Profile(), len(got), ref.Profile(), len(want))
		}
	}
}
