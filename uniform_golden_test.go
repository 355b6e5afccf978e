package spasm

// Determinism lock for the uniform synthetic-traffic workload: like the
// main rundocs golden, but over the extension registry, so the driver
// behind the large-P smoke runs and network benchmarks is pinned
// bit-for-bit too.  Regenerate with SPASM_UPDATE=1 only when a change
// is *intended* to alter simulated results.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"spasm/internal/report"
)

const uniformGoldenPath = "testdata/uniform_tiny.golden.json"

func TestUniformRunDocsBitIdentical(t *testing.T) {
	var docs []report.RunDoc
	add := func(kind Kind, topo string, p int) {
		res, err := Run("uniform", Tiny, 1, Config{Kind: kind, Topology: topo, P: p})
		if err != nil {
			t.Fatalf("uniform on %v/%s p=%d: %v", kind, topo, p, err)
		}
		docs = append(docs, report.RunJSON(res))
	}
	for _, kind := range Machines() {
		add(kind, "full", 8)
	}
	add(Target, "mesh", 8)
	add(Flow, "torus", 64)
	got, err := json.MarshalIndent(docs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("SPASM_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(uniformGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(uniformGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", uniformGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(uniformGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with SPASM_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("uniform RunDoc JSON diverged from golden %s (%d vs %d bytes)",
			uniformGoldenPath, len(got), len(want))
	}
}
