package probe_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"spasm"
	"spasm/internal/probe"
)

// lockCases pin the probe's two outputs — the encoded profile and the
// JSON of the OnEpoch event sequence — for the shapes a streamed spasmd
// run takes, so any change to how the probe accumulates (slice reuse,
// link tables, the encoder) must reproduce them byte for byte.  The
// first four are the service's cold shapes (fft on Target rescales and
// touches fabric links; uniform on Flow drives the flow observer).  The
// last has 16,256 directed links, past the default MaxLinks budget, yet
// no epoch of it touches 4096 of them: it runs once at the default and
// once under a 256-link budget, where most epochs fold into the
// overflow sample, before and after the rescale merges them.  The
// final case keeps four epochs and eight links, so nearly every epoch
// it opens is a rescale that merges folded link tables and recycles the
// epoch it merged away.
var lockCases = []struct {
	spec                spasm.Spec
	maxEpochs, maxLinks int    // probe.NewCapped's caps; 0 keeps the default
	profile, feed       string // SHA-256 of the encoded profile and the event JSON
}{
	{spasm.Spec{App: "fft", Scale: spasm.Small, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16}, 0, 0,
		"f166186c535c91fdec1a421f5bd7eecfd2ab76003f489d3b4f6d1e04af13bfbb",
		"e29d9d75f0aa406a9bc9a17919a7414c0fc0b1b7e97ba175ffc5e352d345f2d8"},
	{spasm.Spec{App: "cg", Scale: spasm.Small, Seed: 1, Machine: spasm.CLogP, Topology: "cube", P: 16}, 0, 0,
		"d58b055b89eeb8f548137088b8b7de4066ff4f1f85625a6a2672671e0ad1f1e4",
		"607a235e7bd1dee9951065aedea50be2237cbe3077ad20eaeae0d731db609196"},
	{spasm.Spec{App: "is", Scale: spasm.Small, Seed: 1, Machine: spasm.LogP, Topology: "full", P: 16}, 0, 0,
		"a13490802b72a6c72ddd7a887ef974b045f0d7e69109cbea7d8b16b145c57dfd",
		"5eb36f9888e7f99727c9be9dbcd83218bdbacf3dbc0c321a5040266d8ff57852"},
	{spasm.Spec{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Flow, Topology: "torus", P: 64}, 0, 0,
		"9728d2174b395d98a4bbc1f47f43e3201793088d04b5e92558682aff5e894577",
		"3d66295aa22524ad76f0100e64dc169454a74a2f05d4b25a8fe9e5a097fedab5"},
	{spasm.Spec{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "full", P: 128}, 0, 0,
		"00571a5c1f806402bedf9ce5f38890327c68877802d2f24919ea7b4066703e2a",
		"ccb3d7181a343159ee20bd2741fe29a12e421ba0a5e6fb28a80c8a4ad73fd8d0"},
	{spasm.Spec{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "full", P: 128}, 0, 256,
		"24777326a87d3bf2d5bfbc3eacba30e3193039ab029f310c5d3baf1c36b2a123",
		"ea905db9423ef1ac78e8ff696b459b330212dd1b1869c97f51965da2ae468e3e"},
	{spasm.Spec{App: "cg", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "cube", P: 16}, 4, 8,
		"075fa39db04e27284af6f4c5c493bf1224f01c4e05e04207a1c4f5d8eb9d803d",
		"109127e7c090c7c7ee3fe472f4b549511bc60c4a00d708fa98450807f912a21a"},
}

// foldedEpochs counts the epochs holding an overflow sample (id NumLinks).
func foldedEpochs(p *spasm.Profile) int {
	n := 0
	for _, e := range p.Epochs {
		if k := len(e.Links); k > 0 && e.Links[k-1].Link == p.NumLinks {
			n++
		}
	}
	return n
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestProfileHashesPinned runs every lock case with a live OnEpoch hook
// and compares both hashes with the pinned ones.
func TestProfileHashesPinned(t *testing.T) {
	for _, tc := range lockCases {
		s := tc.spec
		name := fmt.Sprintf("%s/%v/%s/p%d/epochs%d/links%d",
			s.App, s.Machine, s.Topology, s.P, tc.maxEpochs, tc.maxLinks)
		t.Run(name, func(t *testing.T) {
			var events []spasm.ProfileEpochEvent
			pr := probe.NewCapped(spasm.ProfileConfig{OnEpoch: func(ev spasm.ProfileEpochEvent) {
				events = append(events, ev)
			}}, tc.maxEpochs, tc.maxLinks)
			if _, err := execute(s, pr); err != nil {
				t.Fatal(err)
			}
			prof := pr.Profile()
			feed, err := json.Marshal(events)
			if err != nil {
				t.Fatal(err)
			}
			var enc bytes.Buffer
			if _, err := prof.Encode(&enc); err != nil {
				t.Fatal(err)
			}
			if got := sha(enc.Bytes()); got != tc.profile {
				t.Errorf("profile (%d bytes, %d epochs of %v) hashes to %s, pinned %s",
					enc.Len(), len(prof.Epochs), prof.EpochLen, got, tc.profile)
			}
			if got := sha(feed); got != tc.feed {
				t.Errorf("OnEpoch sequence (%d events) hashes to %s, pinned %s", len(events), got, tc.feed)
			}
			if folded := foldedEpochs(prof); (tc.maxLinks > 0) != (folded > 0) {
				t.Errorf("%d of %d epochs fold links into the overflow (MaxLinks %d)",
					folded, len(prof.Epochs), tc.maxLinks)
			}
		})
	}
}
