package service

import (
	"encoding/json"
	"math"
	"testing"

	"spasm"
	"spasm/internal/probe"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// streamEpochDoc is the document appendEpochFrame renders, as the
// struct encoding/json marshaled before the hub rendered frames itself;
// it is kept as the oracle for those bytes.
type streamEpochDoc struct {
	Index   int     `json:"index"`
	EpochUS float64 `json:"epoch_us"`
	StartUS float64 `json:"start_us"`

	ComputeUS    float64 `json:"compute_us"`
	MemoryUS     float64 `json:"memory_us"`
	LatencyUS    float64 `json:"latency_us"`
	ContentionUS float64 `json:"contention_us"`
	SyncUS       float64 `json:"sync_us"`

	Misses     uint64 `json:"misses"`
	Invals     uint64 `json:"invals"`
	Writebacks uint64 `json:"writebacks"`
	Messages   uint64 `json:"messages"`

	LinkUtil    float64 `json:"link_util,omitempty"`
	MaxLinkUtil float64 `json:"max_link_util,omitempty"`

	Final bool `json:"final,omitempty"`
}

func streamEpoch(ev probe.EpochEvent) streamEpochDoc {
	d := streamEpochDoc{
		Index:        ev.Index,
		EpochUS:      ev.EpochLen.Micros(),
		StartUS:      ev.Start.Micros(),
		ComputeUS:    ev.Buckets[stats.Compute].Micros(),
		MemoryUS:     ev.Buckets[stats.Memory].Micros(),
		LatencyUS:    ev.Buckets[stats.Latency].Micros(),
		ContentionUS: ev.Buckets[stats.Contention].Micros(),
		SyncUS:       ev.Buckets[stats.Sync].Micros(),
		Misses:       ev.Misses,
		Invals:       ev.Invals,
		Writebacks:   ev.Writebacks,
		Messages:     ev.Messages,
		Final:        ev.Final,
	}
	d.LinkUtil, d.MaxLinkUtil = ev.Utilization()
	return d
}

// TestEpochFrameMatchesMarshal holds appendEpochFrame to encoding/json:
// for every epoch event of two streamed runs, and for values at the
// edges of its float formatting, the frame's data is the marshaled
// document.
func TestEpochFrameMatchesMarshal(t *testing.T) {
	var events []probe.EpochEvent
	for _, spec := range []spasm.Spec{
		{App: "fft", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 16},
		{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Flow, Topology: "torus", P: 64},
	} {
		cfg := &spasm.ProfileConfig{OnEpoch: func(ev probe.EpochEvent) { events = append(events, ev) }}
		if _, _, err := spasm.Execute(spec, spasm.RunOptions{Profile: cfg}); err != nil {
			t.Fatal(err)
		}
	}
	n := len(events)
	for i, t := range []sim.Time{0, 1, 3, 999, 1 << 40, math.MaxInt64} {
		ev := probe.EpochEvent{Index: i, EpochLen: t, Start: t, NumLinks: 1 + i, LinkBusy: t / 3, LinkPeak: t / 7,
			Misses: uint64(t), Messages: math.MaxUint64, Final: i%2 == 0}
		for b := range ev.Buckets {
			ev.Buckets[b] = t >> b
		}
		events = append(events, ev, probe.EpochEvent{EpochLen: 1 << 50, LinkBusy: t, NumLinks: 1 << 20})
	}
	// Utilizations of 5e-7 and 1e-6: either side of the switch to
	// exponent form, whose "e-07" encoding/json writes as "e-7".
	events = append(events, probe.EpochEvent{EpochLen: 1_000_000, NumLinks: 2, LinkBusy: 1, LinkPeak: 1})
	for i, ev := range events {
		want, err := json.Marshal(streamEpoch(ev))
		if err != nil {
			t.Fatal(err)
		}
		got := appendEpochFrame([]byte("x"), ev)
		frame := "x" + "event: epoch\ndata: " + string(want) + "\n\n"
		if string(got) != frame {
			t.Fatalf("event %d of %d (%d from runs): frame %q, want %q", i, len(events), n, got, frame)
		}
	}
}

// TestHubFanOut has one goroutine append frames while several
// subscribers, attached before and during the run, follow the log: each
// must read every frame, in order, and see the log sealed.
func TestHubFanOut(t *testing.T) {
	h := newStreamHub()
	const frames = 500
	var want []byte
	for i := 0; i < frames; i++ {
		want = appendEpochFrame(want, probe.EpochEvent{Index: i, EpochLen: 1000, Start: sim.Time(i) * 1000})
	}
	want = appendFrame(want, eventResult, []byte(`{"state":"done"}`))

	follow := func() []byte {
		wait, unsubscribe := h.subscribe()
		defer unsubscribe()
		var got []byte
		for i := 0; ; {
			frames, done := h.snapshot(i)
			for _, f := range frames {
				got = append(got, f...)
			}
			i += len(frames)
			if len(frames) == 0 {
				if done {
					return got
				}
				<-wait
			}
		}
	}
	results := make(chan []byte, 4)
	for s := 0; s < 2; s++ {
		go func() { results <- follow() }()
	}
	for i := 0; i < frames; i++ {
		h.publishEpoch(probe.EpochEvent{Index: i, EpochLen: 1000, Start: sim.Time(i) * 1000})
		if i == frames/2 {
			for s := 0; s < 2; s++ {
				go func() { results <- follow() }()
			}
		}
	}
	h.publish(eventResult, json.RawMessage(`{"state":"done"}`))
	h.finish()
	for s := 0; s < 4; s++ {
		if got := <-results; string(got) != string(want) {
			t.Fatalf("subscriber read %d bytes, want the log's %d", len(got), len(want))
		}
	}
	if len(h.subs) != 0 {
		t.Fatalf("%d subscribers still attached", len(h.subs))
	}
}
