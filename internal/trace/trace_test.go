package trace

import (
	"bytes"
	"testing"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/mem"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// record runs an app on the given machine kind with a recorder attached.
func record(t *testing.T, appName string, kind machine.Kind, p int) (*Trace, *app.Result) {
	t.Helper()
	prog, err := apps.New(appName, apps.Tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := Record(prog, machine.Config{Kind: kind, Topology: "full", P: p})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func TestRecorderCapturesEveryReference(t *testing.T) {
	tr, res := record(t, "fft", machine.CLogP, 4)
	wantR := res.Stats.Count(func(q *stats.Proc) uint64 { return q.Reads })
	wantW := res.Stats.Count(func(q *stats.Proc) uint64 { return q.Writes })
	var gotR, gotW uint64
	for _, e := range tr.Events {
		if e.Write {
			gotW++
		} else {
			gotR++
		}
	}
	if gotR != wantR || gotW != wantW {
		t.Errorf("trace has %d/%d refs, run had %d/%d", gotR, gotW, wantR, wantW)
	}
}

func TestEventTimesMonotonePerProc(t *testing.T) {
	tr, _ := record(t, "is", machine.Target, 4)
	last := map[int32]sim.Time{}
	for _, e := range tr.Events {
		if e.At < last[e.Proc] {
			t.Fatalf("proc %d time went backwards: %v after %v", e.Proc, e.At, last[e.Proc])
		}
		last[e.Proc] = e.At
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr, _ := record(t, "ep", machine.CLogP, 4)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.P != tr.P || len(got.Regions) != len(tr.Regions) || len(got.Events) != len(tr.Events) {
		t.Fatalf("header mismatch: %+v vs %+v", got, tr)
	}
	for i := range tr.Regions {
		if got.Regions[i] != tr.Regions[i] {
			t.Fatalf("region %d: %+v != %+v", i, got.Regions[i], tr.Regions[i])
		}
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: %+v != %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace file at all......."))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	tr, _ := record(t, "ep", machine.CLogP, 4)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail cleanly (no panic, no silent
	// short trace).  Stride to keep the test fast.
	for cut := 0; cut < len(full)-1; cut += 97 {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestReplayReissuesAllEvents(t *testing.T) {
	tr, _ := record(t, "fft", machine.CLogP, 4)
	prog := Replay(tr)
	res, err := app.Execute(prog, machine.Config{Kind: machine.CLogP, Topology: "full", P: 4}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refs := res.Stats.Count(func(q *stats.Proc) uint64 { return q.Reads + q.Writes })
	if refs != uint64(len(tr.Events)) {
		t.Errorf("replay issued %d refs, trace has %d", refs, len(tr.Events))
	}
}

func TestReplayOnWrongPFails(t *testing.T) {
	tr, _ := record(t, "ep", machine.CLogP, 4)
	prog := Replay(tr)
	if _, err := app.Execute(prog, machine.Config{Kind: machine.CLogP, Topology: "full", P: 8}, app.Options{}); err == nil {
		t.Error("replay accepted wrong processor count")
	}
}

// TestTraceDrivenMatchesExecutionDrivenForStaticApp: for EP (static
// pattern) replaying the trace on the machine it was recorded on should
// produce a similar reference mix and a comparable execution time.
func TestTraceDrivenCloseForStaticApp(t *testing.T) {
	tr, orig := record(t, "ep", machine.CLogP, 4)
	res, err := app.Execute(Replay(tr), machine.Config{Kind: machine.CLogP, Topology: "full", P: 4}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Stats.Total) / float64(orig.Stats.Total)
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("trace-driven exec %.0fus vs execution-driven %.0fus (ratio %.2f)",
			res.Stats.Total.Micros(), orig.Stats.Total.Micros(), ratio)
	}
}

func TestPerProcPreservesOrderAndCount(t *testing.T) {
	tr := &Trace{P: 2, Events: []Event{
		{Proc: 0, Addr: 1, At: 10},
		{Proc: 1, Addr: 2, At: 20},
		{Proc: 0, Addr: 3, At: 30},
	}}
	pp := tr.PerProc()
	if len(pp[0]) != 2 || len(pp[1]) != 1 {
		t.Fatalf("split %v", pp)
	}
	if pp[0][0].Addr != 1 || pp[0][1].Addr != 3 {
		t.Error("order not preserved")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{P: 2, Regions: []Region{{Name: "x", N: 4, ElemSize: 8}}}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil || len(got.Events) != 0 || got.P != 2 || len(got.Regions) != 1 {
		t.Errorf("empty round trip: %+v, %v", got, err)
	}
}

func TestReplayPreservesHoming(t *testing.T) {
	// The rebuilt space must home every recorded address identically,
	// so trace-driven runs see the same local/remote split.
	tr, orig := record(t, "is", machine.CLogP, 4)
	prog := Replay(tr)
	res, err := app.Execute(prog, machine.Config{Kind: machine.CLogP, Topology: "full", P: 4}, app.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events[:min(200, len(tr.Events))] {
		if orig.Space.Home(e.Addr) != res.Space.Home(e.Addr) {
			t.Fatalf("address %#x homed differently in replay", uint64(e.Addr))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

var _ machine.Machine = (*recorder)(nil)
var _ = mem.Addr(0)
