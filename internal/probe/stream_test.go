package probe_test

import (
	"bytes"
	"testing"

	"spasm"
)

// TestOnEpochStreamsLiveEvents checks the incremental emission hook: a
// profiled run fires OnEpoch for epochs as they close (not just at
// Finish), the tail arrives as Final events reaching the profile's last
// epoch, and — the non-perturbation half — the finished encoded profile
// is byte-identical to one produced without the hook.
func TestOnEpochStreamsLiveEvents(t *testing.T) {
	cfg := spasm.Config{Kind: spasm.Target, Topology: "mesh", P: 8}

	_, plain, err := runProfiled("fft", cfg, spasm.ProfileConfig{})
	if err != nil {
		t.Fatal(err)
	}

	var events []spasm.ProfileEpochEvent
	_, hooked, err := runProfiled("fft", cfg,
		spasm.ProfileConfig{OnEpoch: func(ev spasm.ProfileEpochEvent) {
			events = append(events, ev)
		}})
	if err != nil {
		t.Fatal(err)
	}

	var live int
	for _, ev := range events {
		if !ev.Final {
			live++
		}
	}
	if live < 2 {
		t.Errorf("only %d live (non-Final) epoch events; want >= 2", live)
	}
	if len(events) == 0 {
		t.Fatal("no epoch events at all")
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Errorf("last event not Final: %+v", last)
	}
	if last.EpochLen != hooked.EpochLen || last.Index != len(hooked.Epochs)-1 {
		t.Errorf("tail event (index %d, epoch %v) does not close the profile (%d epochs of %v)",
			last.Index, last.EpochLen, len(hooked.Epochs), hooked.EpochLen)
	}
	for i := 1; i < len(events); i++ {
		a, b := &events[i-1], &events[i]
		if b.EpochLen < a.EpochLen {
			t.Fatalf("event %d epoch length %v shrank from %v", i, b.EpochLen, a.EpochLen)
		}
		if b.EpochLen == a.EpochLen && b.Index != a.Index+1 {
			t.Fatalf("event %d index %d does not follow %d at equal epoch length", i, b.Index, a.Index)
		}
	}

	var pb, hb bytes.Buffer
	if _, err := plain.Encode(&pb); err != nil {
		t.Fatal(err)
	}
	if _, err := hooked.Encode(&hb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Bytes(), hb.Bytes()) {
		t.Error("OnEpoch hook perturbed the encoded profile")
	}
}

// TestOnEpochSurvivesRescale drives the emitter through resolution
// coarsening: with a tight epoch budget the already-emitted timeline is
// re-emitted at the doubled epoch length, and the stream still closes
// on the profile's final epoch.
func TestOnEpochSurvivesRescale(t *testing.T) {
	var events []spasm.ProfileEpochEvent
	_, prof, err := runCapped("fft", spasm.Config{Kind: spasm.Target, Topology: "mesh", P: 8},
		spasm.ProfileConfig{OnEpoch: func(ev spasm.ProfileEpochEvent) {
			events = append(events, ev)
		}}, 8)
	if err != nil {
		t.Fatal(err)
	}
	lens := map[int64]bool{}
	for _, ev := range events {
		lens[int64(ev.EpochLen)] = true
	}
	if len(lens) < 2 {
		t.Errorf("rescale never re-emitted at a coarser epoch length (lengths seen: %v)", lens)
	}
	last := events[len(events)-1]
	if last.EpochLen != prof.EpochLen || last.Index != len(prof.Epochs)-1 {
		t.Errorf("stream tail (index %d, epoch %v) does not match profile (%d epochs of %v)",
			last.Index, last.EpochLen, len(prof.Epochs), prof.EpochLen)
	}
}
