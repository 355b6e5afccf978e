package probe_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spasm"
	"spasm/internal/app"
	"spasm/internal/apps"
	"spasm/internal/probe"
)

// goldenSpec is the fixed run behind the golden profile encoding.
func goldenSpec() spasm.Spec {
	return spasm.Spec{App: "ep", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "mesh", P: 4}
}

// runProfiled runs app at Tiny scale on cfg's machine with a profiler
// configured by pc attached.
func runProfiled(app string, cfg spasm.Config, pc spasm.ProfileConfig) (*spasm.Result, *spasm.Profile, error) {
	return spasm.Execute(
		spasm.Spec{App: app, Scale: spasm.Tiny, Machine: cfg.Kind, Topology: cfg.Topology, P: cfg.P},
		spasm.RunOptions{Profile: &pc})
}

// execute runs spec with in attached, the way spasm.Execute runs the
// profiler it builds.
func execute(spec spasm.Spec, in app.Instrument) (*spasm.Result, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prog, err := apps.Lookup(spec.App, spec.Scale, spec.Seed)
	if err != nil {
		return nil, err
	}
	return app.Execute(prog, spec.Config(), app.Options{Instrument: in})
}

// runCapped is runProfiled under an epoch cap of maxEpochs.
func runCapped(name string, cfg spasm.Config, pc spasm.ProfileConfig, maxEpochs int) (*spasm.Result, *spasm.Profile, error) {
	pr := probe.NewCapped(pc, maxEpochs, 0)
	res, err := execute(spasm.Spec{App: name, Scale: spasm.Tiny, Machine: cfg.Kind, Topology: cfg.Topology, P: cfg.P}, pr)
	if err != nil {
		return nil, nil, err
	}
	return res, pr.Profile(), nil
}

func encodeProfile(t *testing.T, p *probe.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := p.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// TestEncodeDeterministic runs the same spec twice, independently, and
// requires byte-identical encoded profiles.
func TestEncodeDeterministic(t *testing.T) {
	_, p1, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	_, p2, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := encodeProfile(t, p1), encodeProfile(t, p2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("independent runs encoded differently (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestEncodeRoundTrip checks that Encode → Decode → Encode is lossless,
// both structurally and byte-for-byte.
func TestEncodeRoundTrip(t *testing.T) {
	_, p, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeProfile(t, p)
	dec, err := probe.Decode(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, dec) {
		t.Fatal("decoded profile differs from the original")
	}
	if re := encodeProfile(t, dec); !bytes.Equal(enc, re) {
		t.Fatal("re-encoding a decoded profile changed the bytes")
	}
}

// TestEncodeGolden pins the canonical encoding against a checked-in
// golden file, so accidental format or simulation changes surface as a
// test failure.  Regenerate with -update after an intentional change.
var update = os.Getenv("UPDATE_GOLDEN") != ""

func TestEncodeGolden(t *testing.T) {
	_, p, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeProfile(t, p)
	path := filepath.Join("testdata", "ep_tiny_p4_target.sprf")
	if update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("encoding diverged from golden file %s: got %d bytes, want %d "+
			"(set UPDATE_GOLDEN=1 to regenerate after an intentional change)",
			path, len(enc), len(want))
	}
}

// TestDecodeRejectsGarbage checks the decoder's sanity limits.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := probe.Decode(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("Decode accepted garbage")
	}
	if _, err := probe.Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("Decode accepted an empty stream")
	}
	// Epochs of no length have no utilization; such a profile is corrupt.
	_, p, err := spasm.RunSpecProfiled(goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	p.EpochLen = 0
	if _, err := probe.Decode(bytes.NewReader(encodeProfile(t, p))); err == nil {
		t.Fatal("Decode accepted a profile whose epochs have zero length")
	}
}
