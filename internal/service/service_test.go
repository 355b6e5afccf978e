package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
)

func newTestService(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	svc := service.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return svc, client.New(ts.URL)
}

// get fetches url and returns the status code and the body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestEndToEnd drives the full service loop over HTTP: submit a run,
// poll it to completion, check the statistics are byte-identical to a
// direct spasm.Run of the same spec, and check that an identical
// resubmission is a cache hit visible on /metrics.
func TestEndToEnd(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 2, CacheSize: 64})
	ctx := context.Background()

	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "full", P: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("run finished %s (%s)", st.State, st.Error)
	}

	// Byte-identical to a direct run of the same canonical spec.
	direct, _, err := spasm.Execute(spasm.Spec{
		App: "fft", Scale: spasm.Tiny, Seed: 1, Machine: spasm.Target, Topology: "full", P: 4,
	}, spasm.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("service result differs from direct run:\n  service %s\n  direct  %s", st.Result, want)
	}

	// An identical resubmission is served from the cache, immediately
	// done, byte-identical again.
	st2, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateDone || !st2.Cached {
		t.Fatalf("resubmission: state=%s cached=%v, want done/cached", st2.State, st2.Cached)
	}
	if st2.ID != st.ID {
		t.Fatalf("content addressing broken: IDs %s vs %s", st.ID, st2.ID)
	}
	if !bytes.Equal(st2.Result, want) {
		t.Fatalf("cached result not byte-identical")
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hits, ok := client.MetricValue(page, "spasmd_cache_hits_total"); !ok || hits < 1 {
		t.Fatalf("cache hits = %v (present=%v), want >= 1\n%s", hits, ok, page)
	}
	if misses, ok := client.MetricValue(page, "spasmd_cache_misses_total"); !ok || misses < 1 {
		t.Fatalf("cache misses = %v (present=%v), want >= 1", misses, ok)
	}

	if h, err := cl.Healthz(ctx); err != nil || h.Status != "ok" {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
}

// TestFigureEndpoint checks that a figure request decomposes into pooled
// runs and matches a direct experiment session, and that repeating it
// re-simulates nothing (every underlying run hits the cache).
func TestFigureEndpoint(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 4})
	ctx := context.Background()
	opts := client.SweepOpts{Scale: "tiny", Procs: []int{2, 4}}

	fig, err := cl.Figure(ctx, 7, opts) // IS on Mesh: Contention
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("got %d series, want 3 (logp, clogp, target)", len(fig.Series))
	}

	sess := spasm.NewSession(spasm.Options{Scale: spasm.Tiny, Procs: []int{2, 4}})
	f, err := spasm.FigureByNumber(7)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := sess.Figure(f)
	if err != nil {
		t.Fatal(err)
	}
	want := report.FigureJSON(fr)
	for i, s := range want.Series {
		for j, pt := range s.Points {
			got := fig.Series[i].Points[j]
			if got.P != pt.P || got.ValueUS != pt.ValueUS {
				t.Fatalf("series %s point %d: service (p=%d, %v), direct (p=%d, %v)",
					s.Machine, j, got.P, got.ValueUS, pt.P, pt.ValueUS)
			}
		}
	}

	before, _ := cl.Metrics(ctx)
	misses0, _ := client.MetricValue(before, "spasmd_cache_misses_total")
	if _, err := cl.Figure(ctx, 7, opts); err != nil {
		t.Fatal(err)
	}
	after, _ := cl.Metrics(ctx)
	misses1, _ := client.MetricValue(after, "spasmd_cache_misses_total")
	if misses1 != misses0 {
		t.Fatalf("repeated figure caused %v new cache misses, want 0", misses1-misses0)
	}
}

// TestSweepEndpoint exercises the ad-hoc sweep surface, including an
// extension workload on an extension topology.
func TestSweepEndpoint(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 4})
	status, body := get(t, cl.BaseURL+"/v1/sweeps?app=mg&topo=torus&metric=exec&scale=tiny&procs=2,4&machines=logp,target")
	var fig report.FigureDoc
	if err := json.Unmarshal(body, &fig); status != http.StatusOK || err != nil {
		t.Fatalf("sweep: HTTP %d, %v: %s", status, err, body)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Fatalf("sweep shape: %d series x %d points, want 2x2", len(fig.Series), len(fig.Series[0].Points))
	}
	for _, s := range fig.Series {
		for _, pt := range s.Points {
			if pt.ValueUS <= 0 {
				t.Fatalf("machine %s p=%d: non-positive execution time %v", s.Machine, pt.P, pt.ValueUS)
			}
		}
	}
}

// TestValidation: malformed submissions are rejected with 400s, unknown
// runs with 404s.
func TestValidation(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	for _, req := range []service.RunRequest{
		{App: "no-such-app", P: 2},
		{App: "fft", P: 0},
		{App: "fft", P: 2, Scale: "giant"},
		{App: "fft", P: 2, Machine: "quantum"},
	} {
		if _, err := cl.SubmitRun(ctx, req); err == nil {
			t.Fatalf("request %+v accepted, want 400", req)
		}
	}
	if _, err := cl.GetRun(ctx, "deadbeef"); err == nil {
		t.Fatal("unknown run ID returned a status, want 404")
	}
	if _, err := cl.Figure(ctx, 99, client.SweepOpts{}); err == nil {
		t.Fatal("figure 99 accepted, want 404")
	}
}

// TestSubmitBodyStrict: POST /v1/runs takes one JSON object whose every
// field RunRequest declares.  A misspelt field must not run the default
// in its place, and a retired one must not run — and be cached as —
// something other than what the client asked for; the 400 names the
// field.
func TestSubmitBodyStrict(t *testing.T) {
	svc, _ := newTestService(t, service.Config{Workers: 1})
	h := svc.Handler()
	for _, c := range []struct {
		name, body string
		status     int
		want       []string // substrings of the error
	}{
		{"typo", `{"app":"fft","scale":"tiny","topolgy":"mesh","p":4}`, 400, []string{`"topolgy"`}},
		{"adaptive", `{"app":"fft","scale":"tiny","machine":"flow","p":4,"adaptive":true}`, 400,
			[]string{`"adaptive"`, "removed", `"machine":"target"`}},
		{"escalate_pct", `{"app":"fft","scale":"tiny","machine":"flow","p":4,"escalate_pct":50}`, 400,
			[]string{`"escalate_pct"`, "removed", `"machine":"target"`}},
		{"trailing", `{"app":"fft","scale":"tiny","p":4} {"p":8}`, 400, []string{"after the request object"}},
		// FFT past its processor limit is a validation error, not a
		// failed run that gets cached.
		{"fft-past-limit", `{"app":"fft","scale":"medium","machine":"ideal","topology":"cube","p":256}`, 400,
			[]string{"limit of 128", "medium"}},
		// What the frozen benchmark client sends for a cold flow operation.
		{"bench-shape", `{"app":"uniform","scale":"tiny","seed":1000003,"machine":"flow","topology":"torus","p":64}`, 202, nil},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s: HTTP %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
		}
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("%s: response %s: %v", c.name, rec.Body, err)
		}
		for _, w := range c.want {
			if !strings.Contains(doc.Error, w) {
				t.Errorf("%s: error %q does not mention %s", c.name, doc.Error, w)
			}
		}
	}
}

// TestFailedRunIsCached: a run that fails (by injection at the run
// point) reports failed, and the failure itself is content-addressed so
// resubmission doesn't re-simulate.
func TestFailedRunIsCached(t *testing.T) {
	defer faults.Set(faults.RunExec, func() error { return errors.New("injected run failure") })()
	_, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	req := service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", P: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateFailed || !strings.Contains(st.Error, "injected run failure") {
		t.Fatalf("run: state=%s error=%q, want the injected failure", st.State, st.Error)
	}
	st2, err := cl.SubmitRun(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != service.StateFailed || !st2.Cached {
		t.Fatalf("failed resubmission: state=%s cached=%v, want failed/cached", st2.State, st2.Cached)
	}
}

// TestUnsupportedPIsBadRequest: a processor count the requested network
// cannot take is the client's mistake, answered 400 before anything
// runs or is cached; the ideal machine builds no network and takes it.
func TestUnsupportedPIsBadRequest(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()
	_, err := cl.SubmitRun(ctx, service.RunRequest{App: "ep", Scale: "tiny", Machine: "target", P: 3})
	if !isStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), "must be a power of two") {
		t.Fatalf("target p=3: %v, want a 400 stating the rule", err)
	}
	st, err := cl.Run(ctx, service.RunRequest{App: "ep", Scale: "tiny", Machine: "ideal", P: 3})
	if err != nil || st.State != service.StateDone {
		t.Fatalf("ideal p=3: %v / %+v", err, st)
	}
}

// TestConcurrentSubmissions hammers the queue from many goroutines with
// overlapping specs (run with -race in CI): every submission resolves,
// identical specs coalesce onto identical results, and only one
// simulation per distinct spec is ever executed.
func TestConcurrentSubmissions(t *testing.T) {
	svc, cl := newTestService(t, service.Config{Workers: 4, CacheSize: 64})
	ctx := context.Background()

	specs := []service.RunRequest{
		{App: "ep", Scale: "tiny", Machine: "logp", P: 2},
		{App: "ep", Scale: "tiny", Machine: "logp", P: 4},
		{App: "is", Scale: "tiny", Machine: "clogp", Topology: "mesh", P: 4},
		{App: "fft", Scale: "tiny", Machine: "target", Topology: "cube", P: 4},
	}
	const clients = 8
	results := make([][]*service.RunStatus, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, req := range specs {
					st, err := cl.Run(ctx, req)
					if err != nil {
						t.Errorf("client %d: %v", c, err)
						return
					}
					results[c] = append(results[c], st)
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Identical specs produced byte-identical results everywhere.
	byID := map[string][]byte{}
	for _, rs := range results {
		for _, st := range rs {
			if st.State != service.StateDone {
				t.Fatalf("run %s: %s (%s)", st.ID, st.State, st.Error)
			}
			if prev, ok := byID[st.ID]; ok {
				if !bytes.Equal(prev, st.Result) {
					t.Fatalf("run %s: divergent results across clients", st.ID)
				}
			} else {
				byID[st.ID] = st.Result
			}
		}
	}
	if len(byID) != len(specs) {
		t.Fatalf("got %d distinct results, want %d", len(byID), len(specs))
	}

	// Coalescing + caching: exactly one simulation per distinct spec.
	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	done, _ := client.MetricValue(page, "spasmd_jobs_done_total")
	if int(done) != len(specs) {
		t.Fatalf("executed %v jobs for %d distinct specs (coalescing/cache broken)\n%s", done, len(specs), page)
	}
	if svc.QueueDepth() != 0 {
		t.Fatalf("queue not drained: depth %d", svc.QueueDepth())
	}
}

// TestShutdownDrains: jobs accepted before Shutdown complete; new
// submissions are refused while draining.
func TestShutdownDrains(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	spec := spasm.Spec{App: "ep", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}
	j, _, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Shutdown returned before the accepted job completed")
	}
	st, err := svc.Wait(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("drained job %s (%s), want done", st.State, st.Error)
	}
	if _, _, err := svc.Submit(spasm.Spec{App: "is", Scale: spasm.Tiny, Machine: spasm.LogP, P: 2}); err != service.ErrDraining {
		t.Fatalf("submission while draining: err=%v, want ErrDraining", err)
	}
	// A cached spec is still answerable during/after drain.
	if _, hit, err := svc.Submit(spec); err != nil || !hit {
		t.Fatalf("cached spec during drain: hit=%v err=%v, want hit", hit, err)
	}
}

// TestParallelRunOverWire drives the workers wire field end to end: a
// reference stream on LogP with workers executes on the parallel kernel,
// its RunDoc is byte-identical to a sequential run of the same spec (and
// carries no host block), the content address ignores workers, and the
// outcome shows up on /metrics.  A paper application, which blocks on barriers,
// must land in the fallback counter instead.
func TestParallelRunOverWire(t *testing.T) {
	_, cl := newTestService(t, service.Config{Workers: 1, CacheSize: 16})
	ctx := context.Background()

	req := service.RunRequest{App: "uniform", Scale: "tiny", Machine: "logp",
		Topology: "mesh", P: 64, Workers: 4}
	st, err := cl.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("parallel run finished %s (%s)", st.State, st.Error)
	}
	seq := req
	seq.Workers = 0
	seqSpec, err := seq.Spec()
	if err != nil {
		t.Fatal(err)
	}
	parSpec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if seqSpec.Hash() != parSpec.Hash() {
		t.Fatalf("workers changed the content address: %s vs %s", seqSpec.Hash(), parSpec.Hash())
	}
	direct, _, err := spasm.Execute(seqSpec, spasm.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(report.RunJSON(direct))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Result, want) {
		t.Fatalf("parallel RunDoc diverged from sequential:\nseq: %s\npar: %s", want, st.Result)
	}
	if bytes.Contains(st.Result, []byte(`"host"`)) {
		t.Fatalf("cached RunDoc leaked host-side measurements: %s", st.Result)
	}

	// FFT declines the parallel mode, on LogP as on any machine.
	fb := service.RunRequest{App: "fft", Scale: "tiny", Machine: "logp", P: 8, Workers: 4}
	if st, err = cl.Run(ctx, fb); err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("fallback run finished %s (%s)", st.State, st.Error)
	}

	page, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains([]byte(page), []byte("spasmd_runs_parallel_total 1")) {
		t.Fatalf("metrics page missing spasmd_runs_parallel_total 1:\n%s", page)
	}
	if !bytes.Contains([]byte(page), []byte("spasmd_par_fallbacks_total 1")) {
		t.Fatalf("metrics page missing spasmd_par_fallbacks_total 1:\n%s", page)
	}

	// An over-limit worker count is rejected at validation.
	bad := service.RunRequest{App: "fft", Scale: "tiny", P: 8, Workers: spasm.MaxWorkers + 1}
	if _, err := cl.Run(ctx, bad); err == nil {
		t.Fatal("service accepted workers beyond the limit")
	}
}

// TestFinishCountsBeforeAnnouncing: a client that has seen a job finish
// and then reads the metrics finds the job counted.  finish used to
// close the job's done channel first and count afterwards, so a waiter
// woken on another P could read done + failed one short of what it had
// itself watched complete.
func TestFinishCountsBeforeAnnouncing(t *testing.T) {
	svc, _ := newTestService(t, service.Config{Workers: 2})
	ctx := context.Background()
	for i := 1; i <= 300; i++ {
		j, _, err := svc.Submit(spasm.Spec{App: "ep", Scale: spasm.Tiny, Seed: int64(i), Machine: spasm.LogP, P: 2})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := svc.Wait(ctx, j); err != nil || st.State != service.StateDone {
			t.Fatalf("job %d: %v / %+v", i, err, st)
		}
		if v, _ := client.MetricValue(svc.RenderMetrics(), "spasmd_jobs_done_total"); v != float64(i) {
			t.Fatalf("after waiting for job %d, spasmd_jobs_done_total = %v", i, v)
		}
	}
}

// TestHandlersAnswerDuringRun: with one worker on the only P and a long
// run in flight, liveness probes and cached-result reads are still
// answered promptly.  The simulation kernel switches between processes
// without entering the Go scheduler, so the HTTP goroutines get the P
// at the runtime's forced-preemption ticks rather than at every event;
// a request crosses a few goroutines and so a few ticks.  The bound
// keeps a later change from starving the HTTP side silently.
func TestHandlersAnswerDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-processor run")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	svc, cl := newTestService(t, service.Config{Workers: 1})
	ctx := context.Background()

	cached, err := cl.Run(ctx, service.RunRequest{App: "ep", Scale: "tiny", Machine: "logp", P: 2})
	if err != nil || cached.State != service.StateDone {
		t.Fatalf("warm-up run: %v / %+v", err, cached)
	}
	long, _, err := svc.Submit(spasm.Spec{App: "uniform", Scale: spasm.Tiny, Seed: 1, Machine: spasm.LogP, Topology: "cube", P: 4096})
	if err != nil {
		t.Fatal(err)
	}

	var took []time.Duration // of the probes that competed with the run
	for state := service.StatePending; state == service.StatePending || state == service.StateRunning; {
		t0 := time.Now()
		if _, err := cl.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
		health := time.Since(t0)
		t0 = time.Now()
		got, err := cl.GetRun(ctx, cached.ID)
		if err != nil || !bytes.Equal(got.Result, cached.Result) {
			t.Fatalf("cached read: %v", err)
		}
		read := time.Since(t0)
		st, _ := svc.Status(long.ID())
		if state = st.State; state == service.StateRunning {
			took = append(took, health, read)
		}
	}
	if st, err := svc.Wait(ctx, long); err != nil || st.State != service.StateDone {
		t.Fatalf("long run: %v / %+v", err, st)
	}
	if len(took) == 0 {
		t.Skip("the run finished before a probe could compete with it")
	}
	// Every probe waits for the same few ticks (40 ms here, to the
	// millisecond), so starvation moves the median; the maximum also
	// carries whatever else the host was doing, and is only logged.
	sort.Slice(took, func(i, j int) bool { return took[i] < took[j] })
	median, max := took[len(took)/2], took[len(took)-1]
	t.Logf("%d requests answered while the run was in flight: median %v, max %v", len(took), median, max)
	if bound := 100 * time.Millisecond; median > bound {
		t.Errorf("with a run in flight, /healthz and cached GETs took %v (median); bound %v", median, bound)
	}
}
