package spasm

// Parallel-execution determinism lock: the conservative parallel kernel
// (Spec.Workers > 1) runs reference streams on LogP, Flow and Ideal —
// exactly the runs that are stackless with one worker — and must produce
// byte-identical report documents to the sequential kernel there; every
// other spec must fall back, visibly via Result.Par, to the same bytes.  Parallelism is
// an execution detail, never a source of divergence.

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spasm/internal/report"
	"spasm/internal/sim"
)

// runDoc is a run's report document, the bytes spasmd caches.
func runDoc(t *testing.T, spec Spec, pool *RunPool) ([]byte, *Result) {
	t.Helper()
	res, err := RunSpecOn(spec, pool)
	if err != nil {
		t.Fatalf("%+v: %v", spec, err)
	}
	doc, err := json.Marshal(report.RunJSON(res))
	if err != nil {
		t.Fatal(err)
	}
	return doc, res
}

// TestParallelRunsBitIdentical: uniform on LogP, on every topology, runs
// parallel at two and four workers and matches the sequential document
// byte for byte.
func TestParallelRunsBitIdentical(t *testing.T) {
	pool := NewRunPool(0)
	for _, topo := range []string{"full", "cube", "mesh", "ring", "torus"} {
		spec := Spec{App: "uniform", Scale: Tiny, Machine: LogP, Topology: topo, P: 256}
		want, _ := runDoc(t, spec, pool)
		for _, workers := range []int{2, 4} {
			spec.Workers = workers
			got, res := runDoc(t, spec, pool)
			if res.Par == nil || !res.Par.Parallel {
				t.Fatalf("uniform on logp/%s, %d workers, did not run parallel: %+v", topo, workers, res.Par)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("uniform on logp/%s, %d workers, diverged from sequential\nseq: %s\npar: %s", topo, workers, want, got)
			}
		}
	}
}

// TestParallelFallbackBitIdentical locks the other half of the contract:
// the paper's applications and mg block on locks and barriers, so on
// every machine a Workers run of theirs declines the parallel mode,
// says why, and produces the sequential run's bytes.
func TestParallelFallbackBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("Tiny suite on every machine")
	}
	pool := NewRunPool(0)
	for _, name := range append(Apps(), "mg") {
		for _, kind := range []Kind{Ideal, LogP, Flow, CLogP, Target} {
			spec := Spec{App: name, Scale: Tiny, Machine: kind, P: 8}
			want, _ := runDoc(t, spec, pool)
			spec.Workers = 4
			got, res := runDoc(t, spec, pool)
			if res.Par == nil || res.Par.Parallel || res.Par.Fallback != sim.NotStackless {
				t.Fatalf("%s on %v, 4 workers: parallel report %+v, want fallback %q", name, kind, res.Par, sim.NotStackless)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fallback %s on %v diverged from sequential\nseq: %s\nfb:  %s", name, kind, want, got)
			}
		}
	}
}

// TestOrderedSites: a parallel window runs reference streams on the
// machines priced at issue, and those touch state another process sees in
// one place — the machine, which a stream's feed prices each reference on
// inside an Ordered section.  A
// second call site in non-test code means something else is meant to run
// in a window; that is a design change, not a one-line addition.
func TestOrderedSites(t *testing.T) {
	want := []string{"internal/app/stream.go:run"}
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Ordered" {
						got = append(got, filepath.ToSlash(path)+":"+fn.Name.Name)
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ordered is called from %v, want exactly %v", got, want)
	}
}

// TestWorkersOutsideSpecIdentity asserts the content-address contract:
// Workers is an execution knob, not run identity — it must not perturb
// Key or Hash.
func TestWorkersOutsideSpecIdentity(t *testing.T) {
	base := Spec{App: "fft", Scale: Tiny, Machine: LogP, P: 8}
	with := base
	with.Workers = 8
	if base.Key() != with.Key() {
		t.Fatalf("Workers leaked into Spec.Key:\n%s\n%s", base.Key(), with.Key())
	}
	if base.Hash() != with.Hash() {
		t.Fatalf("Workers leaked into Spec.Hash")
	}
	neg := base
	neg.Workers = -3
	if neg.Canonical().Workers != 0 {
		t.Fatalf("Canonical did not clamp negative Workers: %d", neg.Canonical().Workers)
	}
	bad := base
	bad.Workers = MaxWorkers + 1
	if err := bad.Validate(); err == nil {
		t.Fatalf("Validate accepted Workers=%d", bad.Workers)
	}
}

// TestParallelAbortChaos interrupts parallel runs mid-window — by
// wall-clock timeout and by cancellation at varying points — and checks
// the failure-containment contract holds in parallel mode exactly as it
// does sequentially: every simulated-process goroutine unwinds (no
// leaks), the aborted run's pooled context is discarded rather than
// returned, and a subsequent clean run on the same pool still produces
// bit-identical results.  Run with -race, this is also the drain
// transition's data-race gauntlet.
func TestParallelAbortChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated aborted runs")
	}
	base := runtime.NumGoroutine()
	pool := NewRunPool(0)
	spec := Spec{App: "uniform", Scale: Tiny, Machine: LogP, Topology: "torus", P: 256, Workers: 4}

	// Timeout sweep: deadlines from "immediately" to "well into the run"
	// catch the drain at different window depths.
	timeouts := 0
	for _, d := range []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond,
		5 * time.Millisecond, 20 * time.Millisecond,
	} {
		_, _, err := Execute(spec, RunOptions{Pool: pool, Control: RunControl{Timeout: d}})
		switch {
		case err == nil: // deadline landed after completion
		case errors.Is(err, ErrRunTimeout):
			timeouts++
		default:
			t.Fatalf("timeout %v: unexpected error %v", d, err)
		}
	}
	if timeouts == 0 {
		t.Skip("no deadline fired before completion; host too slow to observe aborts")
	}

	st := pool.Stats()
	if want := timeouts; st.Discarded < want {
		t.Fatalf("pool discarded %d contexts, want >= %d (one per aborted run)", st.Discarded, want)
	}

	// The pool must still serve clean, bit-identical runs after the abuse.
	seq := spec
	seq.Workers = 0
	want, err := RunSpecOn(seq, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunSpecOn(spec, pool)
	if err != nil {
		t.Fatal(err)
	}
	if got.Par == nil || !got.Par.Parallel {
		t.Fatalf("the chaos spec does not run parallel, so no abort landed in a window: %+v", got.Par)
	}
	wantJSON, _ := json.Marshal(report.RunJSON(want))
	gotJSON, _ := json.Marshal(report.RunJSON(got))
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("post-chaos parallel run diverged\nseq: %s\npar: %s", wantJSON, gotJSON)
	}

	// Every simulated-process goroutine must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak after parallel aborts: %d live, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:n])
}
