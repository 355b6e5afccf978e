package probe_test

import (
	"bytes"
	"testing"

	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/machine"
	"spasm/internal/probe"
)

// TestProfilerReuse checks that a profiler reused across runs with Reset
// produces byte-identical encodings to fresh profilers, and that a
// profile emitted before a Reset survives later reuse intact (Finish
// hands its sample slices to the profile, so reuse must not touch them).
func TestProfilerReuse(t *testing.T) {
	encode := func(p *probe.Profile) []byte {
		var buf bytes.Buffer
		if _, err := p.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	runWith := func(pr *probe.Profiler, tc struct {
		app  string
		kind machine.Kind
		topo string
		p    int
	}) *probe.Profile {
		prog, err := apps.New(tc.app, apps.Tiny, 1)
		if err != nil {
			t.Fatal(err)
		}
		cfg := machine.Config{Kind: tc.kind, Topology: tc.topo, P: tc.p}
		if _, err := app.Execute(prog, cfg, app.Options{Instrument: pr}); err != nil {
			t.Fatal(err)
		}
		return pr.Profile()
	}
	cases := []struct {
		app  string
		kind machine.Kind
		topo string
		p    int
	}{
		{"ep", machine.Target, "mesh", 4},
		{"fft", machine.LogP, "cube", 8},
		{"is", machine.Target, "full", 8},
	}

	shared := probe.New(probe.Config{})
	var kept []*probe.Profile
	var keptBytes [][]byte
	for pass := 0; pass < 2; pass++ {
		for i, tc := range cases {
			want := encode(runWith(probe.New(probe.Config{}), tc))
			if pass > 0 || i > 0 {
				shared.Reset()
			}
			got := runWith(shared, tc)
			if !bytes.Equal(encode(got), want) {
				t.Fatalf("pass %d: %s on %v/%s: reused profiler diverged from fresh",
					pass, tc.app, tc.kind, tc.topo)
			}
			kept = append(kept, got)
			keptBytes = append(keptBytes, encode(got))
		}
	}
	// Every profile emitted along the way must still encode to the bytes
	// it had when emitted — reuse must not alias into old profiles.
	for i, p := range kept {
		if !bytes.Equal(encode(p), keptBytes[i]) {
			t.Fatalf("profile %d was corrupted by later profiler reuse", i)
		}
	}
}
