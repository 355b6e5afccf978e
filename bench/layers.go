package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"spasm"
	"spasm/internal/cache"
	"spasm/internal/coherence"
	"spasm/internal/flow"
	"spasm/internal/logp"
	"spasm/internal/mem"
	"spasm/internal/network"
	"spasm/internal/probe"
	"spasm/internal/report"
	"spasm/internal/service"
	"spasm/internal/service/store"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// The layer profile is the part of a traced run that does not depend on
// the workload: every per-layer metric except the traced workload's own
// three.  Its sources are the ones README.md names beside each metric:
//
//	D  a layer drive: a seeded, fixed stream of operations pushed
//	   straight into the layer's public functions and timed from outside;
//	C  an exact count read from a run's statistics or off /metrics;
//	Δ  tier differencing: the same 30 paper points on Ideal, LogP, CLogP
//	   and Target, so that the host time each tier adds can be told apart;
//	S  spans around the harness's own calls.

// sink keeps results the timed loops compute from being optimised away.
var sink int

// drive times f, which performs n operations, three times and returns
// the median cost of one operation in nanoseconds.  f calls start when
// its set-up is done and the timed part begins.
func drive(n int, f func(n int, start func())) float64 {
	var per []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		f(n, func() { t0 = time.Now() })
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// profiler carries what the sections of the profile share.
type profiler struct {
	o   options
	m   *metricSet
	t   *tally
	rng *rand.Rand
}

func layerProfile(o options, m *metricSet, t *tally) error {
	pr := &profiler{o: o, m: m, t: t, rng: rand.New(rand.NewSource(o.seed))}
	restore := oneP()
	pr.tiers()
	pr.largeP()
	pr.simDrives()
	pr.memoryDrives()
	pr.networkDrives()
	doc := pr.encodeDrives()
	restore()
	pr.parallel()
	if err := pr.storeDrives(doc); err != nil {
		return err
	}
	return pr.service()
}

// pair draws a source and a different destination among p nodes.
func (pr *profiler) pair(p int) (src, dst int) {
	src = pr.rng.Intn(p)
	dst = pr.rng.Intn(p - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// pairs draws the fixed op stream of a network drive.
func (pr *profiler) pairs(p int) [][2]int {
	out := make([][2]int, 4096)
	for i := range out {
		out[i][0], out[i][1] = pr.pair(p)
	}
	return out
}

// measuredPass warms a pool on specs, then times one pass.
func (pr *profiler) measuredPass(what string, specs []spasm.Spec, pool *spasm.RunPool) (passStat, float64) {
	ref := simPass(specs, pool, nil, 0)
	pr.t.check(what+" warm-up", specs, ref, ref.stats)
	runtime.GC()
	ps := simPass(specs, pool, nil, 0)
	pr.t.check(what, specs, ps, ref.stats)
	_, wall := ps.times()
	return ps, wall.Seconds()
}

func execSum(st []opStat) (us float64) {
	for i := range st {
		us += st[i].execUS
	}
	return us
}

// tiers is the Δ section: the paper points on four machine kinds.
func (pr *profiler) tiers() {
	m, pool := pr.m, spasm.NewRunPool(poolIdle)
	pass := map[spasm.Kind]passStat{}
	wall := map[spasm.Kind]float64{}
	for _, kind := range []spasm.Kind{spasm.Ideal, spasm.LogP, spasm.CLogP, spasm.Target} {
		pass[kind], wall[kind] = pr.measuredPass("tier "+kind.String(), paperSpecs(pr.o, kind), pool)
	}
	ideal, lp, clp, tgt := pass[spasm.Ideal].stats, pass[spasm.LogP].stats, pass[spasm.CLogP].stats, pass[spasm.Target].stats

	// The ideal machine is a lower bound on the cached abstraction.
	for i, s := range paperSpecs(pr.o, spasm.CLogP) {
		if ideal[i].execUS > clp[i].execUS {
			pr.t.fail("%s: ideal %.1f us above CLogP %.1f us", s.Key(), ideal[i].execUS, clp[i].execUS)
		}
	}

	m.set("apps.ideal_pass_s", wall[spasm.Ideal])
	m.set("apps.ideal_ns_per_ref", wall[spasm.Ideal]*1e9/float64(sumOver(ideal, refsOf)))
	m.set("machine.logp_over_ideal_s", wall[spasm.LogP]-wall[spasm.Ideal])
	m.set("machine.clogp_over_ideal_s", wall[spasm.CLogP]-wall[spasm.Ideal])
	m.set("machine.target_over_clogp_s", wall[spasm.Target]-wall[spasm.CLogP])
	m.set("machine.target.sim_exec_us", execSum(tgt))
	m.set("machine.clogp.sim_exec_us", execSum(clp))
	m.set("machine.logp.sim_exec_us", execSum(lp))

	// The paper's accuracy findings as numbers: CLogP's execution time
	// against Target's point by point, and LogP's latency and contention
	// overheads against Target's in sum.
	errSum := 0.0
	var lat, con [2]float64
	for i := range tgt {
		if tgt[i].execUS > 0 {
			errSum += math.Abs(clp[i].execUS-tgt[i].execUS) / tgt[i].execUS
		}
		lat[0], lat[1] = lat[0]+lp[i].latencyUS, lat[1]+tgt[i].latencyUS
		con[0], con[1] = con[0]+lp[i].contenUS, con[1]+tgt[i].contenUS
	}
	m.set("machine.clogp.exec_err_pct", 100*errSum/float64(len(tgt)))
	m.set("logp.latency_ratio", lat[0]/lat[1])
	m.set("logp.contention_ratio", con[0]/con[1])

	m.set("logp.net_events", float64(sumOver(lp, func(s *opStat) uint64 { return s.netEvents })))
	m.set("network.net_events", float64(sumOver(tgt, func(s *opStat) uint64 { return s.netEvents })))
	hits := float64(sumOver(tgt, func(s *opStat) uint64 { return s.hits }))
	misses := float64(sumOver(tgt, func(s *opStat) uint64 { return s.misses }))
	m.set("cache.hit_rate", hits/(hits+misses))
	m.set("coherence.invals", float64(sumOver(tgt, func(s *opStat) uint64 { return s.invals })))
	m.set("coherence.writebacks", float64(sumOver(tgt, func(s *opStat) uint64 { return s.writebacks })))

	// What the pool saves: the same Target pass with every run
	// constructing its own engine, address space and machine.
	specs := paperSpecs(pr.o, spasm.Target)
	runtime.GC()
	fresh := simPass(specs, nil, nil, 0)
	pr.t.check("fresh Target pass", specs, fresh, tgt)
	_, freshWall := fresh.times()
	m.set("runpool.pooled_over_fresh", wall[spasm.Target]/freshWall.Seconds())
	ps := pool.Stats()
	m.set("runpool.hit_ratio", float64(ps.Hits)/float64(ps.Hits+ps.Misses))

	// What a second, idle P costs a simulation (see oneP).
	runtime.GC()
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	wide := simPass(specs, pool, nil, 0)
	runtime.GOMAXPROCS(prev)
	pr.t.check("Target pass at GOMAXPROCS nproc", specs, wide, tgt)
	_, wideWall := wide.times()
	m.set("sim.p2_over_p1", wideWall.Seconds()/wall[spasm.Target])
}

// largeP runs the two large-P spec lists side by side and the Target
// reference for the flow tier's error.
func (pr *profiler) largeP() {
	m, pool := pr.m, spasm.NewRunPool(poolIdle)
	lp, lpWall := pr.measuredPass("large-P LogP", largeSpecs(pr.o, spasm.LogP), pool)
	fl, flWall := pr.measuredPass("large-P Flow", largeSpecs(pr.o, spasm.Flow), pool)
	m.set("sim.host_ns_per_event", lpWall*1e9/float64(sumOver(lp.stats, eventsOf)))
	m.set("flow.over_logp", flWall/lpWall)
	m.set("flow.net_events", float64(sumOver(fl.stats, func(s *opStat) uint64 { return s.netEvents })))
	m.set("machine.flow.sim_exec_us", execSum(fl.stats))

	// Target is the reference the flow tier abstracts; it can be built on
	// the two torus shapes (coherent machines stop at 1024 nodes).
	ref := largeSpecs(pr.o, spasm.Target)[:2]
	tgt := simPass(ref, pool, nil, 0)
	pr.t.check("large-P Target reference", ref, tgt, tgt.stats)
	for i, name := range []string{"flow.exec_err_pct_p256", "flow.exec_err_pct_p1024"} {
		m.set(name, 100*math.Abs(fl.stats[i].execUS-tgt.stats[i].execUS)/tgt.stats[i].execUS)
	}
}

// parallel compares the conservative parallel kernel at two workers
// with the sequential kernel on one large LogP run, at the process's
// normal GOMAXPROCS.
func (pr *profiler) parallel() {
	spec := largeSpecs(pr.o, spasm.LogP)[1]
	pool := spasm.NewRunPool(poolIdle)
	wall := map[int]float64{}
	for _, workers := range []int{0, 2} {
		spec.Workers = workers
		for rep := 0; rep < 2; rep++ { // the first run builds the machine
			t0 := time.Now()
			res, err := spasm.RunSpecOn(spec, pool)
			took := time.Since(t0)
			switch {
			case err != nil:
				pr.t.fail("parallel kernel, %d workers: %v", workers, err)
			case workers > 1 && (res.Par == nil || !res.Par.Parallel):
				pr.t.fail("parallel kernel, %d workers: ran sequentially (%+v)", workers, res.Par)
			default:
				pr.t.ok(1)
			}
			wall[workers] = took.Seconds()
		}
	}
	pr.m.set("par.w2_ratio", wall[2]/wall[0])
}

// inEngine runs body as the one process of a fresh simulation engine and
// reports an engine failure.
func (pr *profiler) inEngine(what string, start func(), body func(p *sim.Proc)) {
	e := sim.NewEngine()
	e.Spawn("driver", body)
	start()
	if err := e.Run(); err != nil {
		pr.t.fail("%s drive: %v", what, err)
	}
}

// simDrives times the kernel: event dispatch with few and with many
// runnable processes (the binary heap and the ladder queue), a barrier
// episode and a contended lock handoff.
func (pr *profiler) simDrives() {
	dispatch := func(k int) float64 {
		holds := make([]sim.Time, k)
		for i := range holds {
			holds[i] = sim.Time(1 + pr.rng.Intn(16))
		}
		per := pr.o.n(400_000)/k + 1
		return drive(per*k, func(_ int, start func()) {
			e := sim.NewEngine()
			for i := 0; i < k; i++ {
				d := holds[i]
				e.Spawn("p", func(p *sim.Proc) {
					for j := 0; j < per; j++ {
						p.Hold(d)
					}
				})
			}
			start()
			if err := e.Run(); err != nil {
				pr.t.fail("dispatch drive: %v", err)
			}
		})
	}
	pr.m.set("sim.dispatch_ns_k64", dispatch(64))
	k := 4096
	if pr.o.quick {
		k = 256
	}
	pr.m.set("sim.dispatch_ns_k4096", dispatch(k))

	const parties = 16
	pr.m.set("sim.barrier_ns", drive(pr.o.n(20_000), func(n int, start func()) {
		e := sim.NewEngine()
		bar := sim.NewBarrier(parties)
		for i := 0; i < parties; i++ {
			d := sim.Time(1 + i%5)
			e.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < n; j++ {
					p.Hold(d)
					bar.Arrive(p)
				}
			})
		}
		start()
		if err := e.Run(); err != nil {
			pr.t.fail("barrier drive: %v", err)
		}
	}))

	const contenders = 8
	per := pr.o.n(200_000)/contenders + 1
	pr.m.set("sim.lock_handoff_ns", drive(per*contenders, func(_ int, start func()) {
		e := sim.NewEngine()
		var l sim.Lock
		for i := 0; i < contenders; i++ {
			e.Spawn("p", func(p *sim.Proc) {
				for j := 0; j < per; j++ {
					l.Acquire(p)
					p.Hold(1)
					l.Release(p)
				}
			})
		}
		start()
		if err := e.Run(); err != nil {
			pr.t.fail("lock drive: %v", err)
		}
	}))
}

// flatTransport prices every protocol message alike, so the coherence
// drives time the directory and the caches, not a network.
type flatTransport struct{ delay sim.Time }

func (f flatTransport) Message(now sim.Time, src, dst, bytes int, class coherence.Class) coherence.Delivery {
	return coherence.Delivery{At: now + f.delay, Latency: f.delay, Sent: true}
}

// memoryDrives times the cache and the coherence engine.
func (pr *profiler) memoryDrives() {
	m, n := pr.m, pr.o.n(1_000_000)
	off := pr.rng.Intn(1 << 10)
	blocks := make([]mem.Block, 256) // distinct, and no three in one set
	for i := range blocks {
		blocks[i] = mem.Block(off + i*131)
	}
	m.set("cache.access_hit_ns", drive(n, func(n int, start func()) {
		c := cache.New(cache.DefaultConfig())
		for _, b := range blocks {
			c.Insert(b, cache.UnOwned)
		}
		start()
		for i := 0; i < n; i++ {
			c.Access(blocks[i&255])
		}
	}))
	m.set("cache.miss_fill_ns", drive(n, func(n int, start func()) {
		c := cache.New(cache.DefaultConfig())
		span := mem.Block(c.Config().Sets() * c.Config().Assoc * 2)
		start()
		for i := 0; i < n; i++ {
			b := mem.Block(i*97+off) % span
			if c.Access(b) == cache.Invalid {
				c.Insert(b, cache.UnOwned)
			}
		}
	}))
	m.set("cache.invalidate_ns", drive(n, func(n int, start func()) {
		c := cache.New(cache.DefaultConfig())
		start()
		for i := 0; i < n; i++ {
			c.Insert(blocks[i&255], cache.OwnedExclusive)
			c.Invalidate(blocks[i&255])
		}
	}))

	engine := func(p int, elems int) (*coherence.Engine, *mem.Array, *stats.Run) {
		space := mem.NewSpace(p, 32)
		arr := space.Alloc("x", elems, 8, mem.Blocked)
		return coherence.NewEngine(space, cache.DefaultConfig(), coherence.DefaultCosts(), flatTransport{100}), arr, stats.NewRun(p)
	}
	m.set("coherence.hit_ns", drive(n, func(n int, start func()) {
		eng, arr, run := engine(4, 64)
		pr.inEngine("coherence hit", start, func(p *sim.Proc) {
			a := arr.At(0)
			for i := 0; i <= n; i++ {
				eng.Read(p, &run.Procs[0], 0, a)
			}
		})
	}))
	// Every read is to a block node 0 has never held, four elements (one
	// block) apart, homed wherever the blocked placement puts it.
	n = pr.o.n(100_000)
	m.set("coherence.read_miss_ns", drive(n, func(n int, start func()) {
		const elems = 1 << 20
		eng, arr, run := engine(64, elems)
		pr.inEngine("coherence read miss", start, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				eng.Read(p, &run.Procs[0], 0, arr.At((i*37+off)*4%elems))
			}
		})
	}))
	// Six caches share a block — two more than the directory's inline
	// pointers hold, so the entry spills to an overflow bitset — then one
	// of them writes and the other five are invalidated.
	const sharers = 6
	n = pr.o.n(20_000)
	first := pr.rng.Intn(1024 - sharers)
	m.set("coherence.write_upgrade_ns", drive(n, func(n int, start func()) {
		eng, arr, run := engine(1024, 1<<16)
		pr.inEngine("coherence write upgrade", start, func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				a := arr.At(i % 64 * 4)
				for s := first; s < first+sharers; s++ {
					eng.Read(p, &run.Procs[s], s, a)
				}
				eng.Write(p, &run.Procs[first], first, a)
			}
		})
	}))
}

// networkDrives times the three network models and routing.
func (pr *profiler) networkDrives() {
	m, n := pr.m, pr.o.n(200_000)
	big, huge := 1024, 4096
	if pr.o.quick {
		big, huge = 64, 256
	}

	// Reservations on the paper's longest routes (mesh, 64 nodes) and on
	// the large-P torus, per hop booked.
	var ns, hops float64
	for _, topo := range []network.Topology{network.NewMesh(64), network.NewTorus(big)} {
		pairs := pr.pairs(topo.P())
		var f *network.Fabric
		per := drive(n, func(n int, start func()) {
			f = network.NewFabric(topo)
			now := sim.Time(0)
			start()
			for i := 0; i < n; i++ {
				pq := pairs[i&4095]
				now = f.Reserve(now, pq[0], pq[1], 32).Start
			}
		})
		ns += per * float64(n)
		hops += float64(f.HopEvents)
	}
	m.set("network.reserve_ns_per_hop", ns/hops)

	route := func(topo network.Topology) float64 {
		pairs := pr.pairs(topo.P())
		return drive(n, func(n int, start func()) {
			sum := 0
			for i := 0; i < n; i++ {
				pq := pairs[i&4095]
				sum += len(topo.Route(pq[0], pq[1]))
			}
			sink += sum
		})
	}
	m.set("network.route_ns_p1024", route(network.NewTorus(big)))
	m.set("network.route_ns_p4096", route(network.NewCube(huge)))

	message := func(mode logp.PortMode) float64 {
		pairs := pr.pairs(big)
		return drive(n, func(n int, start func()) {
			net := logp.New(big, logp.DefaultL, sim.Micros(1.6), mode)
			now := sim.Time(0)
			start()
			for i := 0; i < n; i++ {
				pq := pairs[i&4095]
				now = net.Message(now, pq[0], pq[1]).SendAt
			}
			net.Release()
		})
	}
	m.set("logp.message_ns_combined", message(logp.Combined))
	m.set("logp.message_ns_perclass", message(logp.PerClass))

	// A flow admitted to an empty network, and one admitted while 4P
	// flows are committed — the table the allocator then walks.
	torus := network.NewTorus(big)
	pairs := pr.pairs(big)
	n = pr.o.n(50_000)
	m.set("flow.transfer_ns_idle", drive(n, func(n int, start func()) {
		net := flow.New(torus)
		now := sim.Time(0)
		start()
		for i := 0; i < n; i++ {
			pq := pairs[i&4095]
			now = net.Transfer(now, pq[0], pq[1], 32).End + 1
			net.Settle(now)
		}
	}))
	m.set("flow.transfer_ns_loaded", drive(n, func(n int, start func()) {
		net := flow.New(torus)
		for i := 0; i < 4*big; i++ {
			pq := pairs[i&4095]
			net.Transfer(0, pq[0], pq[1], 32)
		}
		start()
		for i := 0; i < n; i++ {
			pq := pairs[(i+4*big)&4095]
			net.Transfer(0, pq[0], pq[1], 32)
		}
	}))
}

// encodeDrives times what turns a finished run into bytes: the probe's
// profile and the report's result document.  It returns a result
// document for the store drives.
func (pr *profiler) encodeDrives() []byte {
	m := pr.m
	spec := spasm.Spec{App: "cg", Scale: spasm.Small, Seed: pr.o.seed, Machine: spasm.Target, Topology: "mesh", P: 16}
	if pr.o.quick {
		spec.Scale = spasm.Tiny
	}
	var plain, probed []float64
	var prof *probe.Profile
	var res *spasm.Result
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		r, err := spasm.RunSpecOn(spec, nil)
		t1 := time.Now()
		_, p, perr := spasm.RunSpecProfiled(spec)
		t2 := time.Now()
		if err != nil || perr != nil {
			pr.t.fail("probe overhead runs: %v %v", err, perr)
			continue
		}
		pr.t.ok(2)
		res, prof = r, p
		plain = append(plain, t1.Sub(t0).Seconds())
		probed = append(probed, t2.Sub(t1).Seconds())
	}
	if prof == nil {
		return nil
	}
	m.set("probe.overhead_pct", (median(probed)/median(plain)-1)*100)

	var buf bytes.Buffer
	n := pr.o.n(100) // a profile is a tenth of a megabyte
	m.set("probe.encode_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			buf.Reset()
			if _, err := prof.Encode(&buf); err != nil {
				pr.t.fail("profile encode: %v", err)
				return
			}
		}
	})/1e3)
	raw := append([]byte(nil), buf.Bytes()...)
	m.set("probe.profile_bytes", float64(len(raw)))
	m.set("probe.decode_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			if _, err := probe.Decode(bytes.NewReader(raw)); err != nil {
				pr.t.fail("profile decode: %v", err)
				return
			}
		}
	})/1e3)

	var doc []byte
	n = pr.o.n(5_000)
	m.set("report.runjson_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			var err error
			if doc, err = json.Marshal(report.RunJSON(res)); err != nil {
				pr.t.fail("result encode: %v", err)
				return
			}
		}
	})/1e3)
	m.set("report.rundoc_bytes", float64(len(doc)))
	return doc
}

// storeDrives times the durable store on a real directory: every put is
// a temp file, an fsync, a rename and a directory fsync.
func (pr *profiler) storeDrives(doc []byte) error {
	dir, err := os.MkdirTemp(pr.o.tmpRoot, "drive-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	n := pr.o.n(200)
	id := func(i int, salt string) string {
		sum := sha256.Sum256([]byte(fmt.Sprint(salt, pr.o.seed, i)))
		return hex.EncodeToString(sum[:])
	}
	spec, _ := json.Marshal(service.RequestFromSpec(spasm.Spec{App: "cg", P: 16}))
	pr.m.set("store.put_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			if err := st.Put(store.Record{ID: id(i, "put"), Spec: spec, Doc: doc}); err != nil {
				pr.t.fail("store put: %v", err)
				return
			}
		}
	})/1e3)
	pr.m.set("store.get_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			if rec, ok := st.Get(id(i, "put")); !ok || !bytes.Equal(rec.Doc, doc) {
				pr.t.fail("store get: record %d missing or changed", i)
				return
			}
		}
	})/1e3)
	pr.m.set("store.get_miss_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			if _, ok := st.Get(id(i, "absent")); ok {
				pr.t.fail("store get: record %d exists", i)
				return
			}
		}
	})/1e3)
	ss := st.Stats()
	pr.m.set("store.record_bytes", float64(ss.Bytes)/float64(max(ss.Entries, 1)))
	pr.t.ok(3 * n)
	return nil
}

// service is the service section: drives of the submit path without a
// socket, the loopback floor, and short cold, hit and store phases for
// the latencies, tails and counters the end-to-end list has no room for.
func (pr *profiler) service() error {
	m, o := pr.m, pr.o

	// Submit of a cached spec, in process and through the HTTP handler
	// with no socket.
	srv := service.New(service.Config{Workers: 1})
	spec, err := warmShape.Spec()
	if err != nil {
		return err
	}
	job, _, err := srv.Submit(spec)
	if err != nil {
		return err
	}
	if st, err := srv.Wait(context.Background(), job); err != nil || st.State != service.StateDone {
		return fmt.Errorf("service drive: priming run: %v %+v", err, st)
	}
	n := o.n(100_000)
	m.set("service.submit_hit_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			if _, hit, err := srv.Submit(spec); err != nil || !hit {
				pr.t.fail("submit drive: hit %v, %v", hit, err)
				return
			}
		}
	})/1e3)
	body, _ := json.Marshal(warmShape)
	handler := srv.Handler()
	n = o.n(20_000)
	m.set("service.http_hit_us", drive(n, func(n int, start func()) {
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				pr.t.fail("handler drive: HTTP %d", rec.Code)
				return
			}
		}
	})/1e3)
	srv.Shutdown(context.Background())

	// What one cold operation costs with no service around it: the four
	// shapes, three times each, on a pool.
	pool := spasm.NewRunPool(poolIdle)
	var direct []float64
	for rep := 0; rep < 4; rep++ {
		for i, shape := range coldShapes(o) {
			shape.Seed = o.seed + int64(rep)
			spec, _ := shape.Spec()
			t0 := time.Now()
			_, err := spasm.RunSpecOn(spec, pool)
			if d := time.Since(t0); err != nil {
				pr.t.fail("direct run of cold shape %d: %v", i, err)
			} else if rep > 0 { // the first round builds the machines
				direct = append(direct, float64(d.Nanoseconds())/1e6)
			}
		}
	}

	h, err := startHarness(o)
	if err != nil {
		return err
	}
	defer h.stop()
	n = o.n(2_000)
	var rtt []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := h.clients[0].Healthz(context.Background()); err != nil {
			pr.t.fail("healthz: %v", err)
			break
		}
		rtt = append(rtt, time.Since(t0))
	}
	m.set("client.roundtrip_us", median(ms(rtt))*1e3)

	warmup := &phase{}
	h.coldPhase(warmup, 0, nil, 0)
	pr.t.add(warmup.t)
	// Long enough for the thousand polled runs a 99th percentile needs.
	coldFor, warmFor := 6500*time.Millisecond, time.Second
	if o.quick {
		coldFor, warmFor = 50*time.Millisecond, 50*time.Millisecond
	}
	cold := h.coldMeasured(coldFor, nil, 0)
	first := h.prime(o, pr.t)
	hit := h.hitMeasured(o, first, warmFor)
	stor := h.storeMeasured(o, first, warmFor)
	for _, p := range []*phase{cold, hit, stor} {
		pr.t.add(p.t)
	}
	lat := (*phase).lat
	m.set("service.cold_p50_ms", median(lat(cold, "run")))
	m.set("service.cold_p99_ms", quantile(lat(cold, "run"), 0.99))
	m.set("service.sse_first_epoch_p50_ms", median(lat(cold, "stream-first-epoch")))
	m.set("service.sse_result_p50_ms", median(lat(cold, "stream")))
	m.set("service.join_p50_ms", median(lat(cold, "join")))
	m.set("service.join_coalesced_ratio", cold.delta["spasmd_runs_coalesced_total"]/float64(max(cold.pairs, 1)))
	m.set("service.pool_hits", cold.delta["spasmd_pool_hits_total"])
	m.set("service.hit_p50_ms", median(lat(hit, "hit")))
	m.set("service.hit_p99_ms", quantile(lat(hit, "hit"), 0.99))
	m.set("service.lru_hits", hit.delta["spasmd_cache_hits_total"])
	m.set("service.store_hit_p50_ms", median(lat(stor, "store-hit")))
	m.set("service.store_hit_p99_ms", quantile(lat(stor, "store-hit"), 0.99))
	m.set("service.store_hits", stor.delta["spasmd_store_hits_total"])

	// What the service adds to a cold run beyond the run itself, the
	// encoding of its result and the durable write.
	put, enc := m.vals["store.put_us"].Value, m.vals["report.runjson_us"].Value
	m.set("service.cold_overhead_ms", median(lat(cold, "run"))-median(direct)-(put+enc)/1e3)
	return nil
}
