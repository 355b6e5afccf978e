package spasm

// Bit-for-bit determinism lock: a Tiny sweep of every application on
// every machine characterization must produce byte-identical report
// documents across runs AND across simulator-engineering changes.  The
// golden file was generated before the kernel fast-path work (PR 3) and
// guards that heap, routing, and directory optimizations never change a
// single simulated number.  Regenerate with SPASM_UPDATE=1 only when a
// change is *intended* to alter simulated results.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/report"
	"spasm/internal/runpool"
)

const runDocGoldenPath = "testdata/rundocs_tiny.golden.json"

// goldenRunDocs simulates the determinism corpus: the full Tiny suite on
// all machine kinds over the full network, plus the target machine on
// the cube and mesh (exercising every routing path).
func goldenRunDocs(t *testing.T) []report.RunDoc {
	t.Helper()
	var docs []report.RunDoc
	add := func(app string, kind Kind, topo string) {
		res, err := Run(app, Tiny, 1, Config{Kind: kind, Topology: topo, P: 8})
		if err != nil {
			t.Fatalf("%s on %v/%s: %v", app, kind, topo, err)
		}
		docs = append(docs, report.RunJSON(res))
	}
	for _, app := range Apps() {
		for _, kind := range Machines() {
			add(app, kind, "full")
		}
		add(app, Target, "cube")
		add(app, Target, "mesh")
	}
	return docs
}

// TestPooledRunsBitIdentical is the pooling determinism lock: every
// combination of the Tiny suite across the three networked machines and
// all five topologies must produce byte-identical RunDoc JSON whether it
// runs on fresh state or on one shared, repeatedly reused context pool.
// One pool serves ALL combinations, so each context is rebound across
// different applications — i.e. across different memory layouts — which
// is exactly the reuse the reset invariants (docs/INTERNALS.md) must
// survive.
func TestPooledRunsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny suite x 5 topologies, twice")
	}
	pool := NewRunPool(0)
	kinds := []Kind{Flow, LogP, CLogP, Target}
	topos := []string{"full", "cube", "mesh", "ring", "torus"}
	// Two passes over the whole corpus: the second pass reuses contexts
	// warmed by the first, so every single run of it exercises reset.
	for pass := 0; pass < 2; pass++ {
		for _, app := range Apps() {
			for _, kind := range kinds {
				for _, topo := range topos {
					cfg := Config{Kind: kind, Topology: topo, P: 8}
					fresh, err := Run(app, Tiny, 1, cfg)
					if err != nil {
						t.Fatalf("fresh %s on %v/%s: %v", app, kind, topo, err)
					}
					pooled, err := RunSpecOn(Spec{App: app, Scale: Tiny, Machine: kind, Topology: topo, P: 8}, pool)
					if err != nil {
						t.Fatalf("pooled %s on %v/%s: %v", app, kind, topo, err)
					}
					want, err := json.Marshal(report.RunJSON(fresh))
					if err != nil {
						t.Fatal(err)
					}
					got, err := json.Marshal(report.RunJSON(pooled))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("pass %d: %s on %v/%s: pooled RunDoc diverged from fresh\nfresh:  %s\npooled: %s",
							pass, app, kind, topo, want, got)
					}
				}
			}
		}
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("pool reported no reuse (stats %+v); the test exercised nothing", st)
	}
}

// TestPooledHostArraysStartClean: a pooled context hands each program the
// host arrays of the runs before it, so a value one run leaves behind
// must never reach the next.  Every workload runs seeds 1, 2 and 3 at
// tiny, small and tiny again, back to back on one context, twice over so
// that the second time no array is new; then on two workers sharing a
// pool, as the service's do.  Each RunDoc must equal the fresh run's, and
// each result check must pass.
func TestPooledHostArraysStartClean(t *testing.T) {
	if testing.Short() {
		t.Skip("every workload at small scale")
	}
	steps := []struct {
		scale Scale
		seed  int64
	}{{Tiny, 1}, {Small, 2}, {Tiny, 3}}
	workloads := append(Apps(), ExtendedApps()...)
	spec := func(app string, step int) Spec {
		return Spec{App: app, Scale: steps[step].scale, Seed: steps[step].seed,
			Machine: CLogP, Topology: "mesh", P: 8}
	}
	doc := func(res *Result) string {
		b, err := json.Marshal(report.RunJSON(res))
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	want := map[Spec]string{}
	for _, app := range workloads {
		for i := range steps {
			res, _, err := Execute(spec(app, i), RunOptions{})
			if err != nil {
				t.Fatalf("fresh %s: %v", spec(app, i).Key(), err)
			}
			want[spec(app, i)] = doc(res)
		}
	}
	check := func(pool *RunPool) error {
		for pass := 0; pass < 2; pass++ {
			for _, app := range workloads {
				for i := range steps {
					s := spec(app, i)
					res, err := RunSpecOn(s, pool)
					if err != nil {
						return fmt.Errorf("pass %d: pooled %s: %v", pass, s.Key(), err)
					}
					if got := doc(res); got != want[s] {
						return fmt.Errorf("pass %d: pooled %s diverged from fresh\nfresh:  %s\npooled: %s",
							pass, s.Key(), want[s], got)
					}
				}
			}
		}
		return nil
	}

	one := NewRunPool(1)
	if err := check(one); err != nil {
		t.Fatal(err)
	}
	if st := one.Stats(); st.Misses != 1 {
		t.Fatalf("one context should have served every run: %+v", st)
	}

	shared := NewRunPool(0)
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() { errs <- check(shared) }()
	}
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestRunDocsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Tiny suite")
	}
	got, err := json.MarshalIndent(goldenRunDocs(t), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if os.Getenv("SPASM_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(runDocGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runDocGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", runDocGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(runDocGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with SPASM_UPDATE=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("RunDoc JSON diverged from golden %s (%d vs %d bytes); "+
			"simulated results are supposed to be bit-for-bit stable",
			runDocGoldenPath, len(got), len(want))
	}
}

// TestPooledStreamStateStartsClean: a pooled context keeps a stream run's
// feeds and tallies for the next stream run, so a cursor, pointer or
// count one run leaves behind must never reach the next.  On one context
// per driver — LogP's stackless feeds, CLogP's coroutines running
// app.Drive — every stream workload runs at p64 at two seeds, the
// workloads alternating, twice over; each RunDoc must equal the fresh
// run's, and each stream check must pass.
func TestPooledStreamStateStartsClean(t *testing.T) {
	var programs []func() app.Program
	for _, seed := range []int64{1, 3} {
		for _, name := range streamWorkloads(t) {
			programs = append(programs, func() app.Program { return lookup(t, name, seed) })
		}
	}
	doc := func(res *app.Result) string {
		b, err := json.Marshal(report.RunJSON(res))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, kind := range []machine.Kind{machine.LogP, machine.CLogP} {
		cfg := machine.Config{Kind: kind, Topology: "cube", P: 64}
		want := make([]string, len(programs))
		for i, prog := range programs {
			res, err := app.Execute(prog(), cfg, app.Options{})
			if err != nil {
				t.Fatalf("%v: fresh run %d: %v", kind, i, err)
			}
			want[i] = doc(res)
		}
		pool := runpool.New(1)
		for pass := 0; pass < 2; pass++ {
			for i, prog := range programs {
				res, err := app.Execute(prog(), cfg, app.Options{Pool: pool})
				if err != nil {
					t.Fatalf("%v: pass %d: pooled run %d: %v", kind, pass, i, err)
				}
				if got := doc(res); got != want[i] {
					t.Fatalf("%v: pass %d: pooled run %d diverged from fresh\nfresh:  %s\npooled: %s",
						kind, pass, i, want[i], got)
				}
			}
		}
		if st := pool.Stats(); st.Misses != 1 {
			t.Fatalf("%v: one context should have served every run: %+v", kind, st)
		}
	}
}

// TestWorkVectorPinned pins the work block of a run — the engine's events
// and coroutine switches, the probe's link samples, epochs and rescales —
// fresh and on a context a larger run of the same kind dirtied, and
// checks that the deterministic document never carries it.  The rows are
// one profiled paper application and a reference stream on each machine
// that prices it at issue without ever making it wait: one event a
// processor and no coroutine switch.
func TestWorkVectorPinned(t *testing.T) {
	for _, c := range []struct {
		spec    Spec
		profile *ProfileConfig
		want    report.WorkDoc
	}{
		{Spec{App: "fft", Scale: Tiny, Seed: 1, Machine: Target, Topology: "mesh", P: 16}, &ProfileConfig{},
			report.WorkDoc{Events: 5374, Switches: 4454, ProbeLinkSamples: 14231, ProbeEpochs: 221, ProbeRescales: 1}},
		{Spec{App: "uniform", Scale: Tiny, Seed: 1, Machine: Flow, Topology: "torus", P: 64}, nil,
			report.WorkDoc{Events: 64, Switches: 0}},
		{Spec{App: "uniform", Scale: Tiny, Seed: 1, Machine: Ideal, Topology: "torus", P: 64}, nil,
			report.WorkDoc{Events: 64, Switches: 0}},
	} {
		pool := NewRunPool(1)
		big := c.spec
		big.Scale = Small
		if _, _, err := Execute(big, RunOptions{Pool: pool, Profile: c.profile}); err != nil {
			t.Fatal(err)
		}
		for _, p := range []*RunPool{nil, pool} {
			res, _, err := Execute(c.spec, RunOptions{Pool: p, Profile: c.profile})
			if err != nil {
				t.Fatal(err)
			}
			doc := report.RunJSON(res)
			raw, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if doc.Host != nil || bytes.Contains(raw, []byte(`"work"`)) {
				t.Errorf("RunJSON carries a host or work block: %s", raw)
			}
			report.AttachHost(&doc, res)
			if got := doc.Host.Work; got != c.want {
				t.Errorf("%s on %v, pooled %v: work %+v, pinned %+v", c.spec.App, c.spec.Machine, p != nil, got, c.want)
			}
		}
	}
}
