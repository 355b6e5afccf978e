package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spasm"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/client"
	"spasm/internal/service/store"
)

// The service workload and the service phases of the layer profile drive
// an in-process spasmd — service.New behind
// net/http on a loopback socket, with a real store.Open on a directory
// inside the checkout, so every cold run pays a real fsync — from
// o.clients closed-loop client goroutines, each with its own
// client.Client, its own connection and its own tenant.
const svcCold = "service-cold"

// lruSize is the server's result cache; the warm phases prime four
// times that, so the most recent half-cache is always resident and the
// oldest three cache-fulls never are.
func lruSize(o options) int {
	if o.quick {
		return 8
	}
	return 64
}

// coldShapes are the four runs the cold workload rotates through, one
// per machine tier; every operation gives its shape a seed the server
// has never seen, so every operation is a new content address.
func coldShapes(o options) []service.RunRequest {
	shapes := []service.RunRequest{
		{App: "fft", Scale: "small", Machine: "target", Topology: "mesh", P: 16},
		{App: "cg", Scale: "small", Machine: "clogp", Topology: "cube", P: 16},
		{App: "is", Scale: "small", Machine: "logp", Topology: "full", P: 16},
		{App: "uniform", Scale: "tiny", Machine: "flow", Topology: "torus", P: 64},
	}
	if o.quick {
		for i := range shapes {
			shapes[i].Scale = "tiny"
		}
	}
	return shapes
}

// warmShape is the run the warm phases prime the store with.
var warmShape = service.RunRequest{App: "fft", Scale: "tiny", Machine: "target", Topology: "mesh", P: 16}

// harness is one running service with its clients.
type harness struct {
	dir     string
	shapes  []service.RunRequest // of the cold operations
	srv     *service.Server
	hs      *http.Server
	clients []*client.Client
	trans   []*http.Transport

	// next numbers the cold specs: seed base + next is never reused.
	base int64
	next atomic.Int64
}

func startHarness(o options) (*harness, error) {
	dir, err := os.MkdirTemp(o.tmpRoot, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	h := &harness{dir: dir, shapes: coldShapes(o), base: o.seed * 1_000_000}
	h.srv = service.New(service.Config{Workers: o.clients, CacheSize: lruSize(o), Store: st})
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go h.hs.Serve(ln) // returns when stop shuts the server down
	for c := 0; c < o.clients; c++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 2}
		h.trans = append(h.trans, tr)
		h.clients = append(h.clients, &client.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: tr},
			Tenant:     fmt.Sprintf("bench-%d", c),
			// A failed request is a failed operation, not one to retry.
			Retry: client.RetryPolicy{MaxAttempts: 1},
		})
	}
	return h, nil
}

// stop shuts the HTTP server and the workers down, waits for both, and
// removes the store.
func (h *harness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	for _, tr := range h.trans {
		tr.CloseIdleConnections()
	}
	h.srv.Shutdown(ctx)
	os.RemoveAll(h.dir)
}

// counters reads the named counters off the /metrics page.
func (h *harness) counters(names ...string) (map[string]float64, error) {
	page, err := h.clients[0].Metrics(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for _, n := range names {
		v, ok := client.MetricValue(page, n)
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", n)
		}
		out[n] = v
	}
	return out, nil
}

// answer is what the harness keeps of a completed run's status.
type answer struct {
	result     []byte
	refs, msgs uint64
	events     uint64
}

func answerOf(st *service.RunStatus) (answer, error) {
	doc, err := client.DecodeResult(st)
	if err != nil {
		return answer{}, err
	}
	return answer{result: st.Result, refs: doc.Reads + doc.Writes, msgs: doc.Messages, events: doc.SimEvents}, nil
}

// submitAndPoll is the poll-based client's call sequence — submit, then
// GET every millisecond until the run is terminal — with a span around
// each call.
func submitAndPoll(ctx context.Context, c *client.Client, req service.RunRequest, tr *tracer, parent, op int) (*service.RunStatus, error) {
	s := tr.begin(parent, "client.SubmitRun", "service/client", op)
	st, err := c.SubmitRun(ctx, req)
	tr.end(s)
	for err == nil && st.State != service.StateDone && st.State != service.StateFailed && st.State != service.StateCanceled {
		time.Sleep(time.Millisecond)
		s = tr.begin(parent, "client.GetRun", "service/client", op)
		st, err = c.GetRun(ctx, st.ID)
		tr.end(s)
	}
	return st, err
}

// opRec is one completed operation as a client saw it.
type opRec struct {
	kind   string
	t0, t1 time.Time
}

// phase accumulates what the clients of one measured phase observed.
type phase struct {
	mu    sync.Mutex
	t     tally
	n     int // operations completed
	recs  []opRec
	segs  []segment
	refs  uint64
	msgs  uint64
	evts  uint64
	alloc uint64
	pairs int
	delta map[string]float64 // /metrics counters, after minus before
	cold  []coldAnswer       // sample kept for checking against in-process runs
}

// segment is a stretch of the cold phase that every client starts and
// ends together — a round — with what was completed in it.  The rates are medians over segments, so that a
// few slow stretches of a shared host do not set them.
type segment struct {
	t0, t1     time.Time
	n          int
	refs, msgs uint64
}

// open starts a segment; no client is running.
func (p *phase) open() segment {
	return segment{t0: time.Now(), n: p.n, refs: p.refs, msgs: p.msgs}
}

// close ends the segment s, every client having stopped.
func (p *phase) close(s segment) {
	s.t1, s.n, s.refs, s.msgs = time.Now(), p.n-s.n, p.refs-s.refs, p.msgs-s.msgs
	p.segs = append(p.segs, s)
}

// rate is the median over segments of f per second.
func (p *phase) rate(f func(segment) float64) float64 {
	var per []float64
	for _, s := range p.segs {
		per = append(per, f(s)/s.t1.Sub(s.t0).Seconds())
	}
	return median(per)
}

func (p *phase) opsPerS() float64 { return p.rate(func(s segment) float64 { return float64(s.n) }) }

type coldAnswer struct {
	req    service.RunRequest
	result []byte
}

func (p *phase) done(kind string, t0, t1 time.Time, a answer) {
	p.mu.Lock()
	p.t.ok(1)
	p.n++
	p.recs = append(p.recs, opRec{kind, t0, t1})
	p.refs += a.refs
	p.msgs += a.msgs
	p.evts += a.events
	p.mu.Unlock()
}

func (p *phase) bad(format string, args ...any) {
	p.mu.Lock()
	p.t.fail(format, args...)
	p.mu.Unlock()
}

// lat returns the latencies of one kind of operation in milliseconds.
func (p *phase) lat(kind string) []float64 {
	var out []time.Duration
	for _, r := range p.recs {
		if r.kind == kind {
			out = append(out, r.t1.Sub(r.t0))
		}
	}
	return ms(out)
}

// svcCounters are the /metrics counters whose change over a phase says
// which tier answered.
var svcCounters = []string{
	"spasmd_cache_hits_total", "spasmd_store_hits_total", "spasmd_runs_coalesced_total",
	"spasmd_jobs_done_total", "spasmd_pool_hits_total",
}

// measure runs body as one phase: counters and allocation are read
// before and after, outside the timed interval.
func (h *harness) measure(body func(p *phase)) *phase {
	p := &phase{}
	before, err := h.counters(svcCounters...)
	if err != nil {
		p.bad("reading /metrics: %v", err)
		return p
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	body(p)
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	after, err := h.counters(svcCounters...)
	if err != nil {
		p.bad("reading /metrics: %v", err)
		return p
	}
	p.delta = map[string]float64{}
	for k, v := range after {
		p.delta[k] = v - before[k]
	}
	return p
}

// coldReq is the next never-seen request.
func (h *harness) coldReq() service.RunRequest {
	n := h.next.Add(1)
	req := h.shapes[n%int64(len(h.shapes))]
	req.Seed = h.base + n
	return req
}

// coldRun is one cold operation of the poll-based client.
func (h *harness) coldRun(p *phase, c *client.Client, req service.RunRequest, kind string, tr *tracer, parent, op int) {
	opSpan := tr.begin(parent, kind+" "+req.App, "bench", op)
	t0 := time.Now()
	st, err := submitAndPoll(context.Background(), c, req, tr, opSpan, op)
	t1 := time.Now()
	tr.end(opSpan)
	if err != nil {
		p.bad("%s %s seed %d: %v", kind, req.App, req.Seed, err)
		return
	}
	a, err := answerOf(st)
	if err != nil {
		p.bad("%s %s seed %d: %v", kind, req.App, req.Seed, err)
		return
	}
	p.done(kind, t0, t1, a)
	p.mu.Lock()
	if kind == "run" && len(p.cold) < 2*len(h.shapes) {
		p.cold = append(p.cold, coldAnswer{req, st.Result})
	}
	p.mu.Unlock()
}

// coldStream is one cold operation of the streaming client: the submit
// answers with the run's event feed.
func (h *harness) coldStream(p *phase, c *client.Client, req service.RunRequest, tr *tracer, parent, op int) {
	opSpan := tr.begin(parent, "stream "+req.App, "bench", op)
	s := tr.begin(opSpan, "client.RunStream", "service/client", op)
	t0 := time.Now()
	var firstEpoch time.Time
	seen := map[string]bool{}
	st, err := c.RunStream(context.Background(), req, func(ev client.StreamEvent) error {
		if !seen[ev.Event] {
			seen[ev.Event] = true
			tr.mark(s, "first "+ev.Event+" event", "service", op)
			if ev.Event == "epoch" {
				firstEpoch = time.Now()
			}
		}
		return nil
	})
	t1 := time.Now()
	tr.end(s)
	tr.end(opSpan)
	if err != nil {
		p.bad("stream %s seed %d: %v", req.App, req.Seed, err)
		return
	}
	a, err := answerOf(st)
	if err != nil {
		p.bad("stream %s seed %d: %v", req.App, req.Seed, err)
		return
	}
	p.done("stream", t0, t1, a)
	if !firstEpoch.IsZero() {
		p.mu.Lock()
		p.recs = append(p.recs, opRec{"stream-first-epoch", t0, firstEpoch})
		p.mu.Unlock()
	}
}

// coldPhase runs rounds until d has passed.  In a round every client
// does eight polled runs and one streamed run on its own; then two
// submitters are released together on one new spec, so that one of them
// joins the other's run in flight.
func (h *harness) coldPhase(p *phase, d time.Duration, tr *tracer, parent int) {
	var opN atomic.Int64
	for start := time.Now(); ; {
		seg := p.open()
		var wg sync.WaitGroup
		for _, c := range h.clients {
			wg.Add(1)
			go func(c *client.Client) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					h.coldRun(p, c, h.coldReq(), "run", tr, parent, int(opN.Add(1)))
				}
				h.coldStream(p, c, h.coldReq(), tr, parent, int(opN.Add(1)))
			}(c)
		}
		wg.Wait()

		req := h.coldReq()
		release := make(chan struct{})
		pair := []*client.Client{h.clients[0], h.clients[len(h.clients)-1]}
		for _, c := range pair {
			wg.Add(1)
			go func(c *client.Client) {
				defer wg.Done()
				<-release
				h.coldRun(p, c, req, "join", tr, parent, int(opN.Add(1)))
			}(c)
		}
		close(release)
		wg.Wait()
		p.close(seg)
		p.pairs++
		if time.Since(start) >= d {
			return
		}
	}
}

// checkCold recomputes a sample of the cold answers in process and
// compares bytes: the service must serve exactly the document a direct
// run encodes to.
func checkCold(p *phase) {
	for _, ca := range p.cold {
		spec, err := ca.req.Spec()
		if err == nil {
			var res *spasm.Result
			if res, err = spasm.RunSpecOn(spec, nil); err == nil {
				var want []byte
				if want, err = json.Marshal(report.RunJSON(res)); err == nil && !bytes.Equal(want, ca.result) {
					err = fmt.Errorf("served result differs from a direct run's")
				}
			}
		}
		if err != nil {
			p.t.fail("%s seed %d: %v", ca.req.App, ca.req.Seed, err)
		} else {
			p.t.ok(1)
		}
	}
}

// prime runs the warm shape at 4 x LRU seeds through the service, cold,
// and returns the first answer for each.  The last half-cache of seeds
// is primed after everything else has completed, so those keys are
// certainly the most recently used.
func (h *harness) prime(o options, t *tally) []answer {
	n := 4 * lruSize(o)
	first := make([]answer, n)
	var mu sync.Mutex
	batch := func(lo, hi int) {
		var wg sync.WaitGroup
		for ci, c := range h.clients {
			wg.Add(1)
			go func(ci int, c *client.Client) {
				defer wg.Done()
				for k := lo + ci; k < hi; k += len(h.clients) {
					st, err := submitAndPoll(context.Background(), c, h.warmReq(k), nil, 0, 0)
					var a answer
					if err == nil {
						a, err = answerOf(st)
					}
					mu.Lock()
					if err != nil {
						t.fail("priming key %d: %v", k, err)
					} else {
						t.ok(1)
						first[k] = a
					}
					mu.Unlock()
				}
			}(ci, c)
		}
		wg.Wait()
	}
	recent := n - lruSize(o)/2
	batch(0, recent)
	batch(recent, n)
	return first
}

func (h *harness) warmReq(k int) service.RunRequest {
	req := warmShape
	req.Seed = h.base + int64(k) + 1
	return req
}

// warmPhase has every client resubmit keys lo..hi-1 in a cycle for d.
// When the keys are not shared, client c of n works on the c-th n-th of
// the range, so each key comes round only after its client has touched
// every other.  A warm operation is one POST: the answer must be
// complete, flagged cached, and byte-identical to the first answer for
// its key.
func (h *harness) warmPhase(p *phase, kind string, first []answer, lo, hi int, shared bool, d time.Duration) {
	n := len(h.clients)
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for ci, c := range h.clients {
		from, to := lo+(hi-lo)*ci/n, lo+(hi-lo)*(ci+1)/n
		if shared {
			from, to = lo, hi
		}
		wg.Add(1)
		go func(c *client.Client, k int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				st, err := c.SubmitRun(context.Background(), h.warmReq(k))
				t1 := time.Now()
				switch {
				case err != nil:
					p.bad("%s key %d: %v", kind, k, err)
				case st.State != service.StateDone || !st.Cached:
					p.bad("%s key %d: state %s, cached %v", kind, k, st.State, st.Cached)
				case !bytes.Equal(st.Result, first[k].result):
					p.bad("%s key %d: result differs from the first answer", kind, k)
				default:
					p.done(kind, t0, t1, first[k])
				}
				if k++; k == to {
					k = from
				}
			}
		}(c, lo+(hi-lo)*ci/n)
	}
	wg.Wait()
}

// tierCheck confirms from the /metrics deltas which tier answered the
// phase's operations.
func tierCheck(p *phase, kind, want string) {
	if p.delta == nil {
		return
	}
	n := float64(len(p.lat(kind)))
	for _, name := range []string{"spasmd_cache_hits_total", "spasmd_store_hits_total"} {
		expect := 0.0
		if name == want {
			expect = n
		}
		if got := p.delta[name]; got != expect {
			p.t.fail("%s phase: %s rose by %.0f, want %.0f", kind, name, got, expect)
		}
	}
}

// coldMeasured runs the cold phase for d as a measured phase and checks a
// sample of its answers against runs made in process.
func (h *harness) coldMeasured(d time.Duration, tr *tracer, parent int) *phase {
	p := h.measure(func(p *phase) { h.coldPhase(p, d, tr, parent) })
	checkCold(p)
	return p
}

// hitMeasured resubmits the most recent half-cache of keys for d, all
// clients sharing them: every answer comes from the LRU, and /metrics must
// say so.
func (h *harness) hitMeasured(o options, first []answer, d time.Duration) *phase {
	n := len(first)
	p := h.measure(func(p *phase) { h.warmPhase(p, "hit", first, n-lruSize(o)/2, n, true, d) })
	tierCheck(p, "hit", "spasmd_cache_hits_total")
	return p
}

// storeMeasured cycles over the oldest three cache-fulls of keys for d:
// each has been evicted by the time it comes round, so every answer is
// read from the durable store, and /metrics must say so.
func (h *harness) storeMeasured(o options, first []answer, d time.Duration) *phase {
	p := h.measure(func(p *phase) { h.warmPhase(p, "store-hit", first, 0, 3*lruSize(o), false, d) })
	tierCheck(p, "store-hit", "spasmd_store_hits_total")
	return p
}

// svcWorkload is service-cold.  The warm reads of the service — LRU hits
// and store hits — are phases of the layer profile (layers.go).
type svcWorkload struct{}

// setup starts a service and runs one unmeasured round, which fills the
// server's run pool with the four shapes' machines and opens every
// connection.
func (svcWorkload) setup(o options, t *tally) (*harness, error) {
	h, err := startHarness(o)
	if err != nil {
		return nil, err
	}
	p := &phase{}
	h.coldPhase(p, 0, nil, 0)
	t.add(p.t)
	return h, nil
}

// run measures the workload with tracing off and emits the end-to-end
// metrics.
func (w svcWorkload) run(o options, m *metricSet) (out result, err error) {
	t := &out.tally
	var h *harness
	var setupS []float64
	for rep, start := 0, time.Now(); o.setupAgain(rep, start); rep++ {
		if h != nil {
			h.stop()
		}
		t0 := time.Now()
		if h, err = w.setup(o, t); err != nil {
			return out, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer h.stop()

	p := h.coldMeasured(o.seconds, nil, 0)
	t.add(p.t)

	m.set("setup_s", median(setupS))
	m.set("ops_per_s", p.opsPerS())
	m.set("refs_per_s", p.rate(func(s segment) float64 { return float64(s.refs) }))
	m.set("msgs_per_s", p.rate(func(s segment) float64 { return float64(s.msgs) }))
	m.set("alloc_kb_per_op", float64(p.alloc)/float64(p.n)/1024)
	return out, nil
}

// traced runs one untraced and one traced phase of the workload and
// compares their rates.
func (w svcWorkload) traced(o options, tr *tracer, m *metricSet) (out result, err error) {
	t := &out.tally
	h, err := w.setup(o, t)
	if err != nil {
		return out, err
	}
	defer h.stop()
	d := o.seconds / 4
	plain := h.coldMeasured(d, nil, 0)
	root := tr.begin(0, svcCold, "bench", 0)
	traced := h.coldMeasured(d, tr, root)
	tr.end(root)
	t.add(plain.t)
	t.add(traced.t)
	m.set("op_p50_ms", median(plain.lat("run")))
	m.set("bench.trace_overhead_pct", (plain.opsPerS()/traced.opsPerS()-1)*100)
	m.set("sim.events", float64(traced.evts))
	return out, nil
}
