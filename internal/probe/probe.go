// Package probe is the simulator's time-resolved telemetry subsystem: a
// Profiler attaches to one run and samples, per fixed simulated-time
// epoch, where execution time went and where the network hurt —
//
//   - per-processor execution-time bucket deltas (compute / memory /
//     latency / contention / sync), so the end-of-run aggregates of
//     internal/stats can be seen *unfolding* over simulated time;
//   - per-processor event-counter deltas (references, cache misses,
//     messages, invalidations, writebacks — the coherence actions);
//   - per-link occupancy, traffic and waiting time on the target
//     machine's detailed fabric, the data that shows *which* links
//     saturate during a contention spike (on the flow tier, the same
//     samples are recorded against each flow's bottleneck resource);
//   - a log₂-bucketed histogram of end-to-end message delays (latency
//     plus waiting), per epoch, on every machine with a network.
//
// Sampling is driven by the sim.Engine.Tick hook: whenever the engine
// clock crosses an epoch boundary the profiler snapshots the cumulative
// statistics and spreads each processor's delta over the local-clock
// window it covers (processors run ahead of the engine on local clocks,
// so a compute burst is attributed to the epochs where it actually ran,
// not the epoch where the engine observed it).  A final snapshot at run
// completion closes the tail, so the per-epoch deltas of every bucket
// and counter sum *exactly* to the run's aggregate statistics.  The
// profile is a
// pure function of the run's spec: no wall clock, no map-iteration
// order, no host dependence anywhere — identical specs produce
// byte-identical encoded profiles (see Encode).
//
// When a run outgrows the epoch budget the profiler halves its
// resolution in place (adjacent epochs merge pairwise and the epoch
// length doubles), so memory stays bounded while short phase behaviour
// is preserved for short runs.
package probe

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"spasm/internal/app"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// The profiler's resolution and budgets.
const (
	// DefaultEpoch is the initial epoch length: 10 simulated
	// microseconds, fine enough to resolve the barrier episodes of the
	// tiny workloads; longer runs coarsen automatically.
	DefaultEpoch = 10 * sim.UnitsPerMicro
	// DefaultMaxEpochs bounds a profile's length; crossing it merges
	// adjacent epochs and doubles the epoch length.
	DefaultMaxEpochs = 192
	// DefaultMaxLinks bounds the distinct per-link samples held per
	// epoch.  Small machines never reach it (the paper's topologies have
	// at most 4096 directed links at p=64), but at 1024 processors the
	// fully connected fabric has a million links, and an unbudgeted map
	// per epoch would dwarf the simulation itself.  Activity on links
	// beyond the budget folds into one overflow aggregate per epoch,
	// recorded under link id NumLinks (one past the real id space).
	DefaultMaxLinks = 4096
	// HistBuckets is the number of log₂ message-delay buckets: bucket i
	// counts delays d (in sim.Time units) with 2^i <= d < 2^(i+1)
	// (bucket 0 also collects d < 1); the last bucket is unbounded.
	HistBuckets = 24
)

// Config parameterizes a Profiler.  The zero value profiles with the
// default epoch length and budgets.
type Config struct {
	// OnEpoch, when set, is called for each epoch as it closes during
	// the run (and for the remaining tail at Finish), enabling live
	// streaming of the profile while the simulation executes.  The hook
	// runs synchronously on the simulation goroutine: it must be cheap,
	// must not block, and must not re-enter the profiler.  Emitted
	// events are provisional — see EpochEvent.  Setting OnEpoch does
	// not change the finished Profile in any way.
	OnEpoch func(EpochEvent)
}

// ProcSample is one processor's activity within one epoch: the deltas of
// its time buckets and event counters.
type ProcSample struct {
	Buckets [stats.NumBuckets]sim.Time

	Reads      uint64
	Writes     uint64
	Hits       uint64
	Misses     uint64
	Messages   uint64
	Invals     uint64
	Writebacks uint64
}

func (a *ProcSample) add(b *ProcSample) {
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	a.Reads += b.Reads
	a.Writes += b.Writes
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Messages += b.Messages
	a.Invals += b.Invals
	a.Writebacks += b.Writebacks
}

func (a *ProcSample) sub(b *ProcSample) {
	for i := range a.Buckets {
		a.Buckets[i] -= b.Buckets[i]
	}
	a.Reads -= b.Reads
	a.Writes -= b.Writes
	a.Hits -= b.Hits
	a.Misses -= b.Misses
	a.Messages -= b.Messages
	a.Invals -= b.Invals
	a.Writebacks -= b.Writebacks
}

// scale returns the sample multiplied by frac (0 <= frac < 1), rounding
// every field down — the caller gives the remainder to the last chunk.
func (a *ProcSample) scale(frac float64) ProcSample {
	var c ProcSample
	for i := range a.Buckets {
		c.Buckets[i] = sim.Time(float64(a.Buckets[i]) * frac)
	}
	c.Reads = uint64(float64(a.Reads) * frac)
	c.Writes = uint64(float64(a.Writes) * frac)
	c.Hits = uint64(float64(a.Hits) * frac)
	c.Misses = uint64(float64(a.Misses) * frac)
	c.Messages = uint64(float64(a.Messages) * frac)
	c.Invals = uint64(float64(a.Invals) * frac)
	c.Writebacks = uint64(float64(a.Writebacks) * frac)
	return c
}

// LinkSample is one link's activity within one epoch: a directed link of
// the target fabric, or a resource of the flow tier.
type LinkSample struct {
	// Link is the link id in the network's id space.
	Link int
	// Busy is the time the link spent occupied by circuits within the
	// epoch; Busy/EpochLen is the link's utilization.
	Busy sim.Time
	// Wait is the total time messages routed over this link spent
	// waiting for their circuit — a queueing-pressure indicator
	// (Wait/EpochLen is the mean number of messages queued behind the
	// link, by Little's law).
	Wait sim.Time
	// Messages and Bytes count the transmissions that *started* in
	// this epoch and traversed the link.
	Messages uint64
	Bytes    uint64
}

// Epoch is one sampling interval of a Profile.
type Epoch struct {
	// Procs has one sample per processor.
	Procs []ProcSample
	// Links holds the samples of links with any activity this epoch,
	// sorted by link id.  Empty on machines whose network charges no
	// links (LogP, CLogP).
	Links []LinkSample
	// Hist is the log₂ histogram of end-to-end message delays
	// (contention-free latency plus waiting) of messages departing in
	// this epoch.
	Hist [HistBuckets]uint64
}

// Profile is the finished, immutable output of a Profiler.
type Profile struct {
	// App, Machine and Topology identify the profiled run.
	App      string
	Machine  string
	Topology string
	// P is the number of processors; NumLinks the size of the network's
	// link id space (machine.Network.Links; 0 without a network).
	P        int
	NumLinks int
	// EpochLen is the final epoch length; epoch i covers simulated
	// time [i*EpochLen, (i+1)*EpochLen).
	EpochLen sim.Time
	// Total is the run's simulated execution time.
	Total sim.Time
	// Epochs are the samples, covering [0, Total].
	Epochs []Epoch
}

// EpochStart returns the simulated time at which epoch i begins.
func (p *Profile) EpochStart(i int) sim.Time { return sim.Time(i) * p.EpochLen }

// EpochSum returns bucket b summed over the processors of epoch i.
func (p *Profile) EpochSum(i int, b stats.Bucket) sim.Time {
	var t sim.Time
	for j := range p.Epochs[i].Procs {
		t += p.Epochs[i].Procs[j].Buckets[b]
	}
	return t
}

// Peak returns the epoch with the largest summed value of bucket b, and
// that value.  With no epochs it returns (0, 0).
func (p *Profile) Peak(b stats.Bucket) (epoch int, total sim.Time) {
	for i := range p.Epochs {
		if v := p.EpochSum(i, b); v > total {
			epoch, total = i, v
		}
	}
	return epoch, total
}

// Utilization returns the mean utilization of the network's links
// during epoch i, and the single busiest link's utilization.  Both are
// 0 on machines whose network charges no links (or, in a profile
// no probe wrote, with no epoch length).
func (p *Profile) Utilization(i int) (mean, max float64) {
	if p.NumLinks == 0 || p.EpochLen == 0 {
		return 0, 0
	}
	var busy, peak sim.Time
	for _, l := range p.Epochs[i].Links {
		busy += l.Busy
		if l.Busy > peak {
			peak = l.Busy
		}
	}
	el := float64(p.EpochLen)
	return float64(busy) / (el * float64(p.NumLinks)), float64(peak) / el
}

// Messages returns the total messages recorded in epoch i's histogram.
func (e *Epoch) Messages() uint64 {
	var n uint64
	for _, c := range e.Hist {
		n += c
	}
	return n
}

// DelayQuantile returns the approximate q-quantile (0 < q <= 1) of the
// epoch's message-delay histogram, as the geometric midpoint of the
// bucket the quantile falls in.  It returns 0 when the epoch carried no
// messages.
func (e *Epoch) DelayQuantile(q float64) sim.Time {
	total := e.Messages()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, c := range e.Hist {
		seen += c
		if seen > rank {
			if i == 0 {
				return 1
			}
			return sim.Time(1)<<uint(i) + sim.Time(1)<<uint(i-1) // 1.5 * 2^i
		}
	}
	return 0
}

// histBucket maps a delay to its log₂ bucket.
func histBucket(d sim.Time) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// procSnap is the cumulative per-processor state at the last snapshot,
// plus the processor's local clock then — the spreading window's start.
type procSnap struct {
	buckets                                                   [stats.NumBuckets]sim.Time
	reads, writes, hits, misses, messages, invals, writebacks uint64
	local                                                     sim.Time
}

// slot locates a link sample: ep is the epoch's index plus one (0 = no
// sample), pos the position in that epoch's link table.
type slot struct{ ep, pos int32 }

// linkAcc is one link's sample in one epoch under accumulation, chained
// to the same link's sample in the nearest earlier epoch holding one.
type linkAcc struct {
	LinkSample
	prev slot
}

// epochAcc is one epoch under accumulation: its link samples in
// first-touch order, the overflow aggregate beside them, and the delay
// histogram.  Its processor samples live in the accumulator's slab.
type epochAcc struct {
	links   []linkAcc
	ovf     LinkSample
	ovfHeld bool
	hist    [HistBuckets]uint64
}

// held is the number of link samples the epoch holds, overflow included.
func (e *epochAcc) held() int {
	if e.ovfHeld {
		return len(e.links) + 1
	}
	return len(e.links)
}

// acc is a Profiler's working state.  Every table in it is flat: the
// processor samples of all epochs are one slab, the epochs one array
// sized for the epoch budget, and a link's samples are found through
// head, a run-wide slot per link id that starts the link's chain down
// the epochs holding it.  Epoch i's table stays in array slot i through
// every rescale, so a slot's capacity fits what that epoch of the run
// needs.  Finish copies the finished profile out of it.
//
// The acc lives in the run context's instrument slot
// (app.Ctx.Instrument), so it is sized for that context's P and
// survives garbage collection: once a pooled context's tables have grown
// to the shapes its runs take, a profiled run on it allocates what its
// Profile keeps and little else.  A fresh context's acc goes with it.
type acc struct {
	procs    []ProcSample // epoch i's samples are procs[i*P : (i+1)*P]
	epochs   []epochAcc   // past len: tables kept, with their capacity, for reuse
	head     []slot       // per link id; all zero between runs
	snap     []procSnap
	linkHigh int // most links an epoch has held
}

// grow returns s resized to n elements, reallocating only when its
// capacity is short; the caller clears what it reads.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Profiler samples one run.  Create with New, pass to app.Execute as
// Options.Instrument (or use the spasm.Execute façade), then read
// Profile.
type Profiler struct {
	cfg Config

	run      *stats.Run
	eng      *sim.Engine
	p        int
	numLinks int
	kind     string
	topo     string

	epochLen  sim.Time
	maxEpochs int
	maxLinks  int
	closed    int // fully closed epochs; epoch `closed` is open
	emitted   int // epochs already fired through cfg.OnEpoch
	*acc
	work stats.Work // the probe's counters, copied to the run's at Finish

	profile *Profile
}

// New returns a Profiler with the given configuration.
func New(cfg Config) *Profiler {
	return &Profiler{cfg: cfg, epochLen: DefaultEpoch,
		maxEpochs: DefaultMaxEpochs, maxLinks: DefaultMaxLinks}
}

// Attach implements app.Instrument: it hooks the engine clock and, when
// the machine has one, observes its network.  It takes its tables from
// the context's instrument slot when a run on the context left them
// there, and leaves them there for the next.
func (pr *Profiler) Attach(c *app.Ctx) {
	eng, run, m := c.Eng, c.Run, c.M
	pr.run = run
	pr.eng = eng
	pr.p = run.P()
	pr.kind = m.Kind().String()
	pr.topo = c.Config.Topology

	prev := eng.Tick
	eng.Tick = func(now sim.Time) {
		if prev != nil {
			prev(now)
		}
		pr.tick(now)
	}

	if b, ok := m.(machine.Backend); ok {
		net := b.Network()
		pr.numLinks = net.Links()
		net.Observe(pr.xmit)
	}

	a, _ := c.Instrument.(*acc)
	if a == nil {
		a = new(acc)
		c.Instrument = a
	}
	a.procs = a.procs[:min(cap(a.procs), pr.maxEpochs*pr.p)]
	if cap(a.epochs) < pr.maxEpochs {
		a.epochs = make([]epochAcc, 0, pr.maxEpochs)
	}
	a.epochs = a.epochs[:0]
	a.head = grow(a.head, pr.numLinks)
	a.snap = grow(a.snap, pr.p)
	clear(a.snap)
	pr.acc = a
}

// boundary is the simulated time at which the open epoch ends.
func (pr *Profiler) boundary() sim.Time {
	return sim.Time(pr.closed+1) * pr.epochLen
}

// tick snapshots whenever the engine clock crosses an epoch boundary.
func (pr *Profiler) tick(now sim.Time) {
	if now < pr.boundary() {
		return
	}
	pr.snapAll()
	// snapAll may have rescaled; recompute the closed count against the
	// current epoch length.
	closed := int(now / pr.epochLen)
	pr.work.Epochs += uint64(closed - pr.closed)
	pr.closed = closed
	pr.emitClosed(pr.closed, false)
}

// snapAll distributes every processor's statistics deltas since its
// last snapshot over the epochs its local clock traversed.  Processors
// run ahead of the engine clock on local clocks (sim.Proc.Defer), so a
// delta observed at one engine-clock advance may cover a long stretch
// of earlier local time; spreading it uniformly over that window puts a
// compute burst (or a long synchronization stall) in the epochs where
// the time was actually spent rather than the epoch where the engine
// noticed it.  The last chunk of each window takes the integer
// remainder, so the per-epoch samples still sum exactly to the
// aggregate statistics.
func (pr *Profiler) snapAll() {
	var workers []*sim.Proc
	if pr.eng != nil {
		workers = pr.eng.Procs()
	}
	for i := 0; i < pr.p; i++ {
		st := &pr.run.Procs[i]
		s := &pr.snap[i]
		cur := s.local
		if i < len(workers) {
			if n := workers[i].Horizon(); n > cur {
				cur = n
			}
		}
		// A terminated processor's engine-relative clock keeps moving
		// with the engine; its own time stopped at Finish.
		if st.Finish > 0 && cur > st.Finish {
			cur = st.Finish
		}
		var d ProcSample
		for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
			d.Buckets[b] = st.Time[b] - s.buckets[b]
			s.buckets[b] = st.Time[b]
		}
		d.Reads = st.Reads - s.reads
		d.Writes = st.Writes - s.writes
		d.Hits = st.Hits - s.hits
		d.Misses = st.Misses - s.misses
		d.Messages = st.Messages - s.messages
		d.Invals = st.Invals - s.invals
		d.Writebacks = st.Writebacks - s.writebacks
		s.reads, s.writes, s.hits = st.Reads, st.Writes, st.Hits
		s.misses, s.messages = st.Misses, st.Messages
		s.invals, s.writebacks = st.Invals, st.Writebacks
		pr.spread(i, &d, s.local, cur)
		s.local = cur
	}
}

// procsOf returns epoch e's processor samples.
func (pr *Profiler) procsOf(e int) []ProcSample {
	return pr.procs[e*pr.p : (e+1)*pr.p]
}

// spread adds processor i's delta sample to the epochs covered by its
// local-clock window [a, b), proportionally to overlap.
func (pr *Profiler) spread(i int, d *ProcSample, a, b sim.Time) {
	if *d == (ProcSample{}) {
		return
	}
	if b <= a {
		// No local progress since the last snapshot: the charges are
		// instantaneous at a; attribute them to the epoch ending there.
		t := a
		if t > 0 {
			t--
		}
		pr.procsOf(pr.epochAt(t))[i].add(d)
		return
	}
	span := float64(b - a)
	rem := *d
	for t := a; t < b; {
		e := pr.epochAt(t)
		// epochAt may rescale: the edge is e's at the current length.
		edge := sim.Time(e+1) * pr.epochLen
		if edge >= b {
			pr.procsOf(e)[i].add(&rem)
			return
		}
		c := d.scale(float64(edge-t) / span)
		pr.procsOf(e)[i].add(&c)
		rem.sub(&c)
		t = edge
	}
}

// epochAt returns the index of the epoch containing time t, extending
// the profile and halving its resolution as needed.
func (pr *Profiler) epochAt(t sim.Time) int {
	if t < 0 {
		t = 0
	}
	idx := int(t / pr.epochLen)
	for idx >= pr.maxEpochs {
		pr.rescale()
		idx = int(t / pr.epochLen)
	}
	for n := len(pr.epochs); n <= idx; n++ {
		pr.epochs = pr.epochs[:n+1]
		if need := (n + 1) * pr.p; need > len(pr.procs) {
			// The slab quadruples up to the epoch budget × P, keeping
			// the samples of the open epochs: a fresh acc allocates
			// about 1.4 slabs on a run that reaches the budget.
			procs := make([]ProcSample, min(max(4*len(pr.procs), need), pr.maxEpochs*pr.p))
			copy(procs, pr.procs[:n*pr.p])
			pr.procs = procs
		}
		e := &pr.epochs[n]
		e.links = e.links[:0]
		e.ovfHeld = false
		e.hist = [HistBuckets]uint64{}
		clear(pr.procsOf(n))
	}
	return idx
}

// rescale halves the profile's resolution: adjacent epochs merge
// pairwise and the epoch length doubles.
func (pr *Profiler) rescale() {
	old := len(pr.epochs)
	n := (old + 1) / 2
	for i := 0; i < n; i++ {
		dst := pr.procsOf(i)
		if i > 0 {
			copy(dst, pr.procsOf(2*i))
		}
		if 2*i+1 < old {
			for j, s := range pr.procsOf(2*i + 1) {
				dst[j].add(&s)
			}
		}
	}
	// The chains describe the old epochs, which the merges read; the
	// heads are cleared now and rebuilt over the merged epochs.
	for i := range pr.epochs {
		for _, l := range pr.epochs[i].links {
			pr.head[l.Link] = slot{}
		}
	}
	for i := 0; i < n; i++ {
		e := &pr.epochs[i]
		if i > 0 {
			// Slot i's own epoch was merged into epoch i/2 already, so
			// the slot takes epoch 2i's table, positions unchanged.
			o := &pr.epochs[2*i]
			e.links = append(e.links[:0], o.links...)
			e.ovf, e.ovfHeld, e.hist = o.ovf, o.ovfHeld, o.hist
		}
		if 2*i+1 < old {
			pr.merge(e, &pr.epochs[2*i+1], 2*i)
		}
	}
	pr.epochs = pr.epochs[:n]
	for i := range pr.epochs {
		links := pr.epochs[i].links
		for k := range links {
			l := &links[k]
			l.prev = pr.head[l.Link]
			pr.head[l.Link] = slot{int32(i + 1), int32(k)}
		}
	}
	pr.epochLen *= 2
	pr.closed /= 2
	pr.work.Rescales++
	// Already-emitted epochs merged pairwise too; the merged epoch
	// holding any not-yet-emitted half counts as unemitted, so it fires
	// (again, at the doubled length) on the next boundary crossing.
	pr.emitted /= 2
}

// merge folds o, the epoch after old epoch eOld, into e, which holds
// that epoch's table: a link o shares with it is found through its
// chain, which leads from o's sample straight to its position there.
// Links new to e join it while it is under the link budget and fold
// into its overflow after; when the budget can bind, o's links join in
// ascending id order, so which keep their own sample does not depend on
// o's touch order.
func (pr *Profiler) merge(e, o *epochAcc, eOld int) {
	if e.held()+o.held() > pr.maxLinks {
		slices.SortFunc(o.links, func(a, b linkAcc) int { return cmp.Compare(a.Link, b.Link) })
	}
	for k := range o.links {
		ol := &o.links[k]
		var l *LinkSample
		switch {
		case int(ol.prev.ep) == eOld+1:
			l = &e.links[ol.prev.pos].LinkSample
		case e.held() < pr.maxLinks:
			e.links = append(e.links, linkAcc{LinkSample: LinkSample{Link: ol.Link}})
			l = &e.links[len(e.links)-1].LinkSample
		default:
			l = pr.overflow(e)
		}
		l.add(&ol.LinkSample)
	}
	if o.ovfHeld {
		pr.overflow(e).add(&o.ovf)
	}
	for i := range e.hist {
		e.hist[i] += o.hist[i]
	}
}

// overflow returns e's overflow aggregate, recorded under link id
// NumLinks (one past the real id space).
func (pr *Profiler) overflow(e *epochAcc) *LinkSample {
	if !e.ovfHeld {
		e.ovfHeld = true
		e.ovf = LinkSample{Link: pr.numLinks}
	}
	return &e.ovf
}

func (a *LinkSample) add(b *LinkSample) {
	a.Busy += b.Busy
	a.Wait += b.Wait
	a.Messages += b.Messages
	a.Bytes += b.Bytes
}

// linkIn returns epoch ep's sample for link id, walking r down the
// link's chain from wherever it points (the head, or a sample in a
// later epoch) and leaving r at the sample.  The pointer is valid until
// epoch ep's next new link.
func (pr *Profiler) linkIn(r **slot, ep, id int) *LinkSample {
	for int((*r).ep) > ep+1 {
		*r = &pr.epochs[(*r).ep-1].links[(*r).pos].prev
	}
	if int((*r).ep) == ep+1 {
		return &pr.epochs[ep].links[(*r).pos].LinkSample
	}
	return pr.admit(*r, ep, id)
}

// admit returns a sample for link id in epoch ep, which does not hold
// one.  The link joins the epoch while it is under the link budget,
// spliced into the chain at r; past the budget its activity folds into
// the overflow aggregate and r stays put.  Which links get their own
// sample is thus a deterministic function of each epoch's touch order.
func (pr *Profiler) admit(r *slot, ep, id int) *LinkSample {
	e := &pr.epochs[ep]
	if e.held() >= pr.maxLinks {
		return pr.overflow(e)
	}
	if len(e.links) == cap(e.links) {
		// A full table grows straight to the most links an epoch has
		// held, so even a fresh acc's tables grow about once.
		e.links = slices.Grow(e.links, max(pr.linkHigh-len(e.links), 1))
	}
	e.links = append(e.links, linkAcc{LinkSample: LinkSample{Link: id}, prev: *r})
	pr.linkHigh = max(pr.linkHigh, len(e.links))
	*r = slot{int32(ep + 1), int32(len(e.links) - 1)}
	return &e.links[len(e.links)-1].LinkSample
}

// charge books one transmission on each link of its route: the message,
// its bytes and its wait to departure epoch dep, and the occupancy of
// [start, end) to every epoch the interval overlaps — all links of a
// route hold it for the same interval.  Each link's chain is walked
// once, down from the last epoch the interval reaches, so the epoch
// shared by the departure and the interval's first piece takes a single
// lookup.  Pieces past the profile's last epoch at the current
// resolution wait for the rescale that makes room for them, which
// happens, as it would piece by piece, after the earlier pieces landed.
func (pr *Profiler) charge(route []int, dep int, bytes int, wait, start, end sim.Time) {
	for first := true; ; first = false {
		stop := min(end, sim.Time(pr.maxEpochs)*pr.epochLen)
		lo, hi := 0, -1 // the epochs [lo, hi] the pieces reach
		if start < stop {
			lo, hi = int(start/pr.epochLen), int((stop-1)/pr.epochLen)
			if hi >= len(pr.epochs) {
				pr.epochAt(stop - 1)
			}
		}
		shared := lo <= hi && lo == dep
		samples := hi - lo + 1
		if first && !shared {
			samples++
		}
		pr.work.LinkSamples += uint64(len(route) * samples)
		for _, id := range route {
			r := &pr.head[id]
			for ep := hi; ep >= lo; ep-- {
				l := pr.linkIn(&r, ep, id)
				l.Busy += min(stop, sim.Time(ep+1)*pr.epochLen) - max(start, sim.Time(ep)*pr.epochLen)
				if first && ep == dep {
					l.Messages++
					l.Bytes += uint64(bytes)
					l.Wait += wait
				}
			}
			if first && !shared {
				l := pr.linkIn(&r, dep, id)
				l.Messages++
				l.Bytes += uint64(bytes)
				l.Wait += wait
			}
		}
		if start >= end || stop >= end {
			return
		}
		start = max(start, stop)
		pr.epochAt(start)
	}
}

// xmit is the network's observer: it attributes the message's delay to
// the departure epoch's histogram and, when the message is charged to
// links, spreads its occupancy over the epochs it spans, per link.  On
// the flow tier the one link is the flow's bottleneck resource, in the
// flow net's resource id space (directed links, then injection ports,
// then ejection ports), so per-link telemetry shows *which* resource the
// sharing happened on, through the unchanged encode format.
func (pr *Profiler) xmit(now sim.Time, x network.Xmit, src, dst, bytes int, links []int) {
	dep := pr.epochAt(now)
	pr.epochs[dep].hist[histBucket(x.End-now)]++
	if len(links) > 0 {
		pr.charge(links, dep, bytes, x.Wait, x.Start, x.End)
	}
}

// Finish implements app.Instrument: it closes the final partial epoch,
// freezes the profile, leaves the accumulator ready for the next run and
// adds the probe's counters to the run's work.
func (pr *Profiler) Finish(res *app.Result) {
	// Take the final snapshot — any activity since the last boundary
	// crossing spreads over the closing local-clock windows — and make
	// sure the profile reaches the run's completion even if the tail
	// epochs carried no activity.
	pr.snapAll()
	last := pr.run.Total
	if last > 0 {
		last--
	}
	pr.epochAt(last)
	// Drop trailing empty epochs created by in-flight transmissions
	// that never extended past the run's completion.
	n := len(pr.epochs)
	for n > 0 && sim.Time(n-1)*pr.epochLen > pr.run.Total {
		n--
	}
	// Flush the unemitted tail (the final partial epoch, and any earlier
	// epochs the last boundary crossing had not reached).
	pr.emitClosed(n, true)
	pr.work.Epochs += uint64(max(n-pr.closed, 0))

	p := &Profile{
		App:      res.Program,
		Machine:  pr.kind,
		Topology: pr.topo,
		P:        pr.p,
		NumLinks: pr.numLinks,
		EpochLen: pr.epochLen,
		Total:    pr.run.Total,
		Epochs:   make([]Epoch, n),
	}
	procs := slices.Clone(pr.procs[:n*pr.p])
	// Each epoch's links go out in id order: walking every link's chain
	// in id order deals them to their epochs sorted, the overflow last.
	off := make([]int, n+1)
	for i := range p.Epochs {
		off[i+1] = off[i] + pr.epochs[i].held()
	}
	links := make([]LinkSample, off[n])
	for id := range pr.head {
		for r := pr.head[id]; r.ep != 0; {
			l := &pr.epochs[r.ep-1].links[r.pos]
			if i := int(r.ep) - 1; i < n {
				links[off[i]] = l.LinkSample
				off[i]++
			}
			r = l.prev
		}
	}
	clear(pr.head)
	for i := range p.Epochs {
		e := &pr.epochs[i]
		if e.ovfHeld {
			links[off[i]] = e.ovf
			off[i]++
		}
		lo := off[i] - e.held()
		p.Epochs[i] = Epoch{Procs: procs[i*pr.p : (i+1)*pr.p : (i+1)*pr.p], Hist: e.hist}
		if lo < off[i] {
			p.Epochs[i].Links = links[lo:off[i]:off[i]]
		}
	}
	pr.acc = nil
	w := &pr.run.Work
	w.LinkSamples, w.Epochs, w.Rescales = pr.work.LinkSamples, pr.work.Epochs, pr.work.Rescales
	pr.profile = p
}

// Profile returns the finished profile; it panics if the run has not
// completed.
func (pr *Profiler) Profile() *Profile {
	if pr.profile == nil {
		panic("probe: Profile before the run finished")
	}
	return pr.profile
}

var _ app.Instrument = (*Profiler)(nil)

// String summarizes the profile in one line.
func (p *Profile) String() string {
	return fmt.Sprintf("%s on %s/%s p=%d: %d epochs of %v (total %v)",
		p.App, p.Machine, p.Topology, p.P, len(p.Epochs), p.EpochLen, p.Total)
}
