package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"spasm"
	"spasm/internal/report"
	"spasm/internal/stats"
)

// simWorkload is one simulator workload: a fixed list of specs on one
// machine kind, run in order, closed loop, on one goroutine through
// spasm.RunSpecOn on one run pool — the path spasmd's workers use.  One
// operation is one spec: the run plus the encoding of its result document.
//
// The simulator workloads run at GOMAXPROCS 1 (see oneP): they measure
// what one core simulates, which is what a spasmd worker gets when every
// core has a worker.
type simWorkload struct {
	name  string
	kind  spasm.Kind
	large bool
}

// workload is what main runs: untraced for the end-to-end metrics, or
// traced — spans on — for the three per-layer metrics that are the
// workload's own.
type workload interface {
	run(o options, m *metricSet) (result, error)
	traced(o options, tr *tracer, m *metricSet) (result, error)
}

// result is what a workload hands back to main.
type result struct {
	tally
	digest string // simulator workloads only
}

var workloads = map[string]workload{
	"paper-target": simWorkload{name: "paper-target", kind: spasm.Target},
	"largep-logp":  simWorkload{name: "largep-logp", kind: spasm.LogP, large: true},
	"largep-flow":  simWorkload{name: "largep-flow", kind: spasm.Flow, large: true},
	svcCold:        svcWorkload{},
}

// oneP sets GOMAXPROCS to 1 and returns the function that restores it.
// A simulation is one runnable goroutine at a time, handing off to the
// next through a channel; with a second, idle P the woken goroutine is
// often stolen across, and a paper-target pass then takes 0.60 s in
// place of 0.48 s and varies twice as much (measured on the 2-vCPU
// recording host).  sim.p2_over_p1 in the per-layer list keeps that cost
// in view.
func oneP() (restore func()) {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

func (w simWorkload) specs(o options) []spasm.Spec {
	if w.large {
		return largeSpecs(o, w.kind)
	}
	return paperSpecs(o, w.kind)
}

// paperSpecs is the paper's evaluation grid cut to what fits a pass:
// four applications at medium scale and cholesky at tiny, on the three
// topologies of the paper at 8 and 32 processors — 30 points.
func paperSpecs(o options, kind spasm.Kind) []spasm.Spec {
	var out []spasm.Spec
	for _, app := range []string{"fft", "cg", "is", "ep", "cholesky"} {
		scale := spasm.Medium
		if app == "cholesky" || o.quick {
			scale = spasm.Tiny
		}
		procs := []int{8, 32}
		if o.quick {
			procs = []int{8} // tiny fft has 16 rows
		}
		for _, topo := range []string{"full", "cube", "mesh"} {
			for _, p := range procs {
				out = append(out, spasm.Spec{App: app, Scale: scale, Seed: o.seed,
					Machine: kind, Topology: topo, P: p})
			}
		}
	}
	return out
}

// largeSpecs is uniform random traffic at the processor counts where
// the event queue (LogP) or the flow allocator (Flow) does nearly all
// the work.
func largeSpecs(o options, kind spasm.Kind) []spasm.Spec {
	shapes := []struct {
		topo string
		p    int
	}{{"torus", 256}, {"torus", 1024}, {"cube", 4096}}
	if o.quick {
		shapes[0].p, shapes[1].p, shapes[2].p = 64, 64, 256
	}
	out := make([]spasm.Spec, len(shapes))
	for i, s := range shapes {
		out[i] = spasm.Spec{App: "uniform", Scale: spasm.Tiny, Seed: o.seed,
			Machine: kind, Topology: s.topo, P: s.p}
	}
	return out
}

// opStat is what the harness keeps of one simulated run: the hash of
// its result document (every simulated statistic, in the service's own
// encoding) and the counts the metrics are built from.
type opStat struct {
	sum                 [sha256.Size]byte
	docBytes            int
	refs, msgs          uint64
	events, netEvents   uint64
	hits, misses        uint64
	invals, writebacks  uint64
	execUS              float64
	latencyUS, contenUS float64
}

// passStat is one pass over a spec list.
type passStat struct {
	start, end []time.Time // of each operation
	stats      []opStat
	alloc      uint64
	errs       []error // per operation; nil where the run succeeded
}

// simPass runs every spec once, in order.  A run that fails leaves a
// zero opStat and an error; the pass goes on.
func simPass(specs []spasm.Spec, pool *spasm.RunPool, tr *tracer, parent int) passStat {
	n := len(specs)
	ps := passStat{start: make([]time.Time, n), end: make([]time.Time, n),
		stats: make([]opStat, n), errs: make([]error, n)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	passSpan := tr.begin(parent, "pass", "bench", 0)
	for i, spec := range specs {
		opSpan := tr.begin(passSpan, "op "+spec.Key(), "bench", i+1)
		ps.start[i] = time.Now()
		s := tr.begin(opSpan, "spasm.RunSpecOn", "spasm", i+1)
		res, err := spasm.RunSpecOn(spec, pool)
		tr.end(s)
		var doc report.RunDoc
		var data []byte
		if err == nil {
			s = tr.begin(opSpan, "report.RunJSON", "report", i+1)
			doc = report.RunJSON(res)
			data, err = json.Marshal(doc)
			tr.end(s)
		}
		ps.end[i] = time.Now()
		tr.end(opSpan)
		if err != nil {
			ps.errs[i] = err
			continue
		}
		ps.stats[i] = statOf(res.Stats, &doc, data)
	}
	tr.end(passSpan)
	runtime.ReadMemStats(&after)
	ps.alloc = after.TotalAlloc - before.TotalAlloc
	return ps
}

// times returns each operation's duration and their sum: the pass wall,
// which leaves out the harness's own work between operations.
func (ps passStat) times() (ops []time.Duration, wall time.Duration) {
	ops = make([]time.Duration, len(ps.start))
	for i := range ops {
		ops[i] = ps.end[i].Sub(ps.start[i])
		wall += ops[i]
	}
	return ops, wall
}

// floorOf is what one pass costs when nothing disturbs it: the fastest
// run of each spec over all the passes, summed.  The simulator is
// deterministic and single-threaded, so whatever the host does to a run —
// a slower clock, a neighbour in the shared cache — only ever adds to it;
// the recording host does so for minutes at a time, which no median over a
// run of seconds takes out, while every spec meets a quiet moment in
// nearly every run (README.md, "Host noise", has the measurements).
func floorOf(passes []passStat) time.Duration {
	var floor time.Duration
	for i := range passes[0].start {
		best := passes[0].end[i].Sub(passes[0].start[i])
		for _, ps := range passes[1:] {
			best = min(best, ps.end[i].Sub(ps.start[i]))
		}
		floor += best
	}
	return floor
}

func statOf(run *stats.Run, doc *report.RunDoc, data []byte) opStat {
	return opStat{
		sum:        sha256.Sum256(data),
		docBytes:   len(data),
		refs:       doc.Reads + doc.Writes,
		msgs:       doc.Messages,
		events:     doc.SimEvents,
		netEvents:  doc.NetModelEvents,
		hits:       doc.Hits,
		misses:     doc.Misses,
		invals:     run.Count(func(p *stats.Proc) uint64 { return p.Invals }),
		writebacks: run.Count(func(p *stats.Proc) uint64 { return p.Writebacks }),
		execUS:     doc.TotalUS,
		latencyUS:  doc.LatencyUS,
		contenUS:   doc.ContentionUS,
	}
}

func sumOver(st []opStat, f func(*opStat) uint64) uint64 {
	var n uint64
	for i := range st {
		n += f(&st[i])
	}
	return n
}

func refsOf(s *opStat) uint64   { return s.refs }
func msgsOf(s *opStat) uint64   { return s.msgs }
func eventsOf(s *opStat) uint64 { return s.events }

// poolIdle keeps every configuration of the widest spec list (the layer
// profile runs the paper points on four machine kinds through one pool:
// 24) resident, so a measured pass never constructs.
const poolIdle = 64

// tally counts operations attempted and failed, with the reason for
// each failure.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.notes = append(t.notes, o.notes...)
}

// check folds a pass into the tally: a run that erred, or whose result
// document differs from the reference answer for its spec, has failed.
func (t *tally) check(what string, specs []spasm.Spec, ps passStat, ref []opStat) {
	for i, spec := range specs {
		switch {
		case ps.errs[i] != nil:
			t.fail("%s: %s: %v", what, spec.Key(), ps.errs[i])
		case ref[i].docBytes != 0 && ps.stats[i].sum != ref[i].sum:
			t.fail("%s: %s: statistics differ from the first answer", what, spec.Key())
		default:
			t.ok(1)
		}
	}
}

// warm builds a pool and runs one unmeasured pass on it, which fills the
// pool and the route caches; it is what setup_s times.
func warm(specs []spasm.Spec) (*spasm.RunPool, passStat, time.Duration) {
	t0 := time.Now()
	pool := spasm.NewRunPool(poolIdle)
	ps := simPass(specs, pool, nil, 0)
	return pool, ps, time.Since(t0)
}

func digestOf(ref []opStat) string {
	h := sha256.New()
	for i := range ref {
		h.Write(ref[i].sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// run measures the workload with tracing off and emits the end-to-end
// metrics.
func (w simWorkload) run(o options, m *metricSet) (result, error) {
	defer oneP()()
	specs := w.specs(o)
	var out result

	var setupS []float64
	var pool *spasm.RunPool
	var ref passStat
	for rep, start := 0, time.Now(); o.setupAgain(rep, start); rep++ {
		pool = nil
		runtime.GC()
		var took time.Duration
		pool, ref, took = warm(specs)
		setupS = append(setupS, took.Seconds())
	}
	out.check("warm-up", specs, ref, ref.stats)

	var passes []passStat
	for start := time.Now(); ; {
		runtime.GC()
		ps := simPass(specs, pool, nil, 0)
		out.check("pass", specs, ps, ref.stats)
		passes = append(passes, ps)
		if time.Since(start) >= o.seconds {
			break
		}
	}
	w.verify(specs, pool, ref.stats, &out.tally)
	out.digest = digestOf(ref.stats)

	var allocs []float64
	for _, ps := range passes {
		allocs = append(allocs, float64(ps.alloc))
	}
	wall := floorOf(passes).Seconds()
	n := float64(len(specs))
	m.set("setup_s", median(setupS))
	m.set("ops_per_s", n/wall)
	m.set("refs_per_s", float64(sumOver(ref.stats, refsOf))/wall)
	m.set("msgs_per_s", float64(sumOver(ref.stats, msgsOf))/wall)
	m.set("alloc_kb_per_op", median(allocs)/n/1024)
	return out, nil
}

// verify runs the checks that need more simulation than the measured
// passes did.  None of it is timed.
func (w simWorkload) verify(specs []spasm.Spec, pool *spasm.RunPool, ref []opStat, t *tally) {
	t.check("fresh run (no pool)", specs, simPass(specs, nil, nil, 0), ref)
	for i := range ref {
		if ref[i].docBytes != 0 && (ref[i].refs == 0 || ref[i].msgs == 0) {
			t.fail("%s: %d references, %d messages", specs[i].Key(), ref[i].refs, ref[i].msgs)
		}
	}
	if w.kind != spasm.Flow {
		return
	}
	// Flow and LogP differ in how they price messages, never in how many
	// there are; and no network is faster than none.
	onKind := func(kind spasm.Kind) []opStat {
		other := make([]spasm.Spec, len(specs))
		for i, s := range specs {
			s.Machine = kind
			other[i] = s
		}
		ps := simPass(other, pool, nil, 0)
		t.check("reference on "+kind.String(), other, ps, ps.stats)
		return ps.stats
	}
	ideal, lp := onKind(spasm.Ideal), onKind(spasm.LogP)
	for i, s := range specs {
		if lp[i].msgs != ref[i].msgs {
			t.fail("%s: %d messages, LogP has %d", s.Key(), ref[i].msgs, lp[i].msgs)
		}
		if ideal[i].execUS > ref[i].execUS {
			t.fail("%s: ideal %.1f us above flow %.1f us", s.Key(), ideal[i].execUS, ref[i].execUS)
		}
	}
}

// traced repeats the workload with spans on: two untraced passes give
// the baseline the traced pass is compared with.
func (w simWorkload) traced(o options, tr *tracer, m *metricSet) (result, error) {
	defer oneP()()
	specs := w.specs(o)
	var out result
	pool, ref, _ := warm(specs)
	out.check("warm-up", specs, ref, ref.stats)
	var plain []passStat
	for i := 0; i < 2; i++ {
		runtime.GC()
		plain = append(plain, simPass(specs, pool, nil, 0))
		out.check("pass", specs, plain[i], ref.stats)
	}
	runtime.GC()
	root := tr.begin(0, w.name, "bench", 0)
	ps := simPass(specs, pool, tr, root)
	tr.end(root)
	out.check("traced pass", specs, ps, ref.stats)
	out.digest = digestOf(ref.stats)
	var walls []float64
	var ops []time.Duration
	for _, p := range plain {
		each, wall := p.times()
		ops = append(ops, each...)
		walls = append(walls, wall.Seconds())
	}
	m.set("op_p50_ms", median(ms(ops)))
	_, wall := ps.times()
	m.set("bench.trace_overhead_pct", (wall.Seconds()/median(walls)-1)*100)
	m.set("sim.events", float64(sumOver(ps.stats, eventsOf)))
	return out, nil
}
