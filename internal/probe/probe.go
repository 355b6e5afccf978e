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
// When a run outgrows the configured epoch budget the profiler halves
// its resolution in place (adjacent epochs merge pairwise and the epoch
// length doubles), so memory stays bounded while short phase behaviour
// is preserved for short runs.
package probe

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"spasm/internal/app"
	"spasm/internal/flow"
	"spasm/internal/logp"
	"spasm/internal/machine"
	"spasm/internal/network"
	"spasm/internal/sim"
	"spasm/internal/stats"
)

// Defaults for Config.
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

// Config parameterizes a Profiler.  The zero value uses the defaults.
type Config struct {
	// EpochLen is the initial epoch length (0 = DefaultEpoch).
	EpochLen sim.Time
	// MaxEpochs caps the number of epochs held; on overflow the
	// resolution halves (0 = DefaultMaxEpochs; minimum 2).
	MaxEpochs int
	// MaxLinks caps the distinct per-link samples held per epoch; link
	// activity beyond it folds into an overflow aggregate under link id
	// NumLinks (0 = DefaultMaxLinks; minimum 1).
	MaxLinks int
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

// LinkSample is one directed link's activity within one epoch (target
// machine only).
type LinkSample struct {
	// Link is the directed link id in the topology's id space.
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
	// sorted by link id.  Empty on machines without a detailed fabric.
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
	// P is the number of processors; NumLinks the size of the detailed
	// fabric's directed-link id space (0 without one).
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

// Utilization returns the mean utilization of the detailed fabric's
// links during epoch i, and the single busiest link's utilization.
// Both are 0 on machines without a detailed network.
func (p *Profile) Utilization(i int) (mean, max float64) {
	if p.NumLinks == 0 {
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

// epochAcc is one epoch under accumulation.
type epochAcc struct {
	procs []ProcSample
	links linkTable
	hist  [HistBuckets]uint64
}

// reset empties the accumulator for a new epoch, keeping the buffers of
// one a rescale merged away, so a run holds at most MaxEpochs × P
// samples however many epochs it opens.
func (e *epochAcc) reset(p int) {
	if e.procs == nil {
		e.procs = make([]ProcSample, p)
	} else {
		clear(e.procs)
	}
	e.links.reset()
	e.hist = [HistBuckets]uint64{}
}

// linkTable is one epoch's link samples in first-touch order, indexed by
// an open-addressing table from link id to position: two flat slices per
// epoch instead of a heap object per (epoch, link).
type linkTable struct {
	samples []LinkSample
	index   []int32 // position+1, 0 when empty; power-of-two length, at most half full
}

// find returns link id's sample, or nil and the index slot it would take.
func (t *linkTable) find(id int) (*LinkSample, int) {
	if len(t.index) == 0 {
		return nil, 0
	}
	mask := len(t.index) - 1
	h := int((uint64(id) * 0x9E3779B97F4A7C15) >> (64 - bits.TrailingZeros(uint(len(t.index)))))
	for ; t.index[h] != 0; h = (h + 1) & mask {
		if l := &t.samples[t.index[h]-1]; l.Link == id {
			return l, h
		}
	}
	return nil, h
}

// add appends an empty sample for link id, which find reported absent
// with the given slot.
func (t *linkTable) add(id, slot int) *LinkSample {
	t.samples = append(t.samples, LinkSample{Link: id})
	if 2*len(t.samples) <= len(t.index) {
		t.index[slot] = int32(len(t.samples))
	} else {
		// Rebuild at twice the samples' capacity, rounded up to a power
		// of two.
		t.index = make([]int32, max(8, 1<<bits.Len(uint(2*cap(t.samples)-1))))
		for i := range t.samples {
			_, h := t.find(t.samples[i].Link)
			t.index[h] = int32(i + 1)
		}
	}
	return &t.samples[len(t.samples)-1]
}

// reset empties the table, keeping both slices' backing arrays.
func (t *linkTable) reset() {
	t.samples = t.samples[:0]
	clear(t.index)
}

// sorted orders the samples by link id in place, which leaves the index
// stale: the table is only read, merged away or handed to a Profile
// afterwards.
func (t *linkTable) sorted() []LinkSample {
	slices.SortFunc(t.samples, func(a, b LinkSample) int { return cmp.Compare(a.Link, b.Link) })
	return t.samples
}

// link returns the accumulator for link id, enforcing the per-epoch
// budget: once the epoch holds budget distinct ids, activity on any
// further id folds into one overflow aggregate recorded under ovfID
// (the id one past the real link space).  Ids already held — including
// the overflow itself — keep accumulating individually, so which links
// get their own sample is a deterministic function of touch order.
// The pointer is valid until the epoch's next new link.
func (e *epochAcc) link(id, budget, ovfID int) *LinkSample {
	l, slot := e.links.find(id)
	if l != nil {
		return l
	}
	if len(e.links.samples) >= budget && id != ovfID {
		return e.link(ovfID, budget+1, ovfID)
	}
	return e.links.add(id, slot)
}

// merge folds o into e (pairwise epoch merge during a rescale).  Link
// ids are folded in ascending order: when the budget binds mid-merge,
// which ids keep individual samples must not depend on o's touch order.
// o's link table is left sorted, fit only for recycling.
func (e *epochAcc) merge(o *epochAcc, budget, ovfID int) {
	for i := range e.procs {
		e.procs[i].add(&o.procs[i])
	}
	for _, ol := range o.links.sorted() {
		l := e.link(ol.Link, budget, ovfID)
		l.Busy += ol.Busy
		l.Wait += ol.Wait
		l.Messages += ol.Messages
		l.Bytes += ol.Bytes
	}
	for i := range e.hist {
		e.hist[i] += o.hist[i]
	}
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
	linksHigh int        // most links one epoch has held
	epochs    []epochAcc // past len: accumulators a rescale merged away
	closed    int        // fully closed epochs; epoch `closed` is open
	emitted   int        // epochs already fired through cfg.OnEpoch
	snap      []procSnap

	profile *Profile
}

// New returns a Profiler with the given configuration.
func New(cfg Config) *Profiler {
	if cfg.EpochLen <= 0 {
		cfg.EpochLen = DefaultEpoch
	}
	if cfg.MaxEpochs < 2 {
		cfg.MaxEpochs = DefaultMaxEpochs
	}
	if cfg.MaxLinks < 1 {
		cfg.MaxLinks = DefaultMaxLinks
	}
	return &Profiler{cfg: cfg, epochLen: cfg.EpochLen,
		maxEpochs: cfg.MaxEpochs, maxLinks: cfg.MaxLinks}
}

// linkAt returns epoch e's accumulator for link id under the profiler's
// budget; the overflow aggregate sits at id NumLinks (the id space on
// the machine being profiled — the fabric's links or the flow tier's
// resource space).  An epoch's first link sizes its table for the most
// links any epoch has held so far.
func (pr *Profiler) linkAt(e *epochAcc, id int) *LinkSample {
	if cap(e.links.samples) == 0 {
		e.links.samples = make([]LinkSample, 0, pr.linksHigh)
	}
	l := e.link(id, pr.maxLinks, pr.numLinks)
	pr.linksHigh = max(pr.linksHigh, len(e.links.samples))
	return l
}

// Attach implements app.Instrument: it hooks the engine clock and, when
// the machine has one, the detailed fabric or the abstract network.
func (pr *Profiler) Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine) {
	pr.run = run
	pr.eng = eng
	pr.p = run.P()
	pr.kind = m.Kind().String()
	pr.topo = cfg.Topology
	pr.snap = make([]procSnap, pr.p)

	prev := eng.Tick
	eng.Tick = func(now sim.Time) {
		if prev != nil {
			prev(now)
		}
		pr.tick(now)
	}

	if nm, ok := m.(machine.Networked); ok && nm.Fabric() != nil {
		fab := nm.Fabric()
		pr.numLinks = fab.Topology().NumLinks()
		fab.Observer = pr.fabricXmit
	} else if fm, ok := m.(machine.Flowed); ok && fm.FlowNet() != nil {
		fn := fm.FlowNet()
		pr.numLinks = fn.LinkSpace()
		fn.Observer = pr.flowXmit
	} else if am, ok := m.(machine.Abstracted); ok && am.Net() != nil {
		am.Net().Observer = pr.netXmit
	}
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
	pr.closed = int(now / pr.epochLen)
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
		pr.epochAt(t).procs[i].add(d)
		return
	}
	span := float64(b - a)
	rem := *d
	for t := a; t < b; {
		e := pr.epochAt(t)
		// Recompute the edge after epochAt, which may rescale.
		edge := (t/pr.epochLen + 1) * pr.epochLen
		if edge >= b {
			e.procs[i].add(&rem)
			return
		}
		c := d.scale(float64(edge-t) / span)
		e.procs[i].add(&c)
		rem.sub(&c)
		t = edge
	}
}

// epochAt returns the accumulator for the epoch containing time t,
// extending the profile and halving its resolution as needed.
func (pr *Profiler) epochAt(t sim.Time) *epochAcc {
	if t < 0 {
		t = 0
	}
	idx := int(t / pr.epochLen)
	for idx >= pr.maxEpochs {
		pr.rescale()
		idx = int(t / pr.epochLen)
	}
	for n := len(pr.epochs); n <= idx; n++ {
		if n < cap(pr.epochs) {
			pr.epochs = pr.epochs[:n+1]
		} else {
			pr.epochs = append(pr.epochs, epochAcc{})
		}
		pr.epochs[n].reset(pr.p)
	}
	return &pr.epochs[idx]
}

// rescale halves the profile's resolution: adjacent epochs merge
// pairwise and the epoch length doubles.
func (pr *Profiler) rescale() {
	n := (len(pr.epochs) + 1) / 2
	for i := 0; i < n; i++ {
		if i > 0 {
			// Slot i holds an accumulator already merged away or moved;
			// swapping, not copying, parks every such one past n, where
			// epochAt recycles it.
			pr.epochs[i], pr.epochs[2*i] = pr.epochs[2*i], pr.epochs[i]
		}
		if 2*i+1 < len(pr.epochs) {
			pr.epochs[i].merge(&pr.epochs[2*i+1], pr.maxLinks, pr.numLinks)
		}
	}
	pr.epochs = pr.epochs[:n]
	pr.epochLen *= 2
	pr.closed /= 2
	// Already-emitted epochs merged pairwise too; the merged epoch
	// holding any not-yet-emitted half counts as unemitted, so it fires
	// (again, at the doubled length) on the next boundary crossing.
	pr.emitted /= 2
}

// fabricXmit is the detailed fabric's observer: it attributes the
// message's delay to the departure epoch's histogram and spreads the
// circuit's occupancy over the epochs it spans, per link.
func (pr *Profiler) fabricXmit(now sim.Time, x network.Xmit, src, dst, bytes int, route []int) {
	dep := pr.epochAt(now)
	dep.hist[histBucket(x.End-now)]++
	// Message counters and waiting charge to the departure epoch.
	for _, id := range route {
		l := pr.linkAt(dep, id)
		l.Messages++
		l.Bytes += uint64(bytes)
		l.Wait += x.Wait
	}
	pr.addSpan(route, x.Start, x.End)
}

// addSpan spreads a circuit's [start, end) occupancy across the epochs
// the interval overlaps, on every link of its route: all of them hold it
// for the same interval, so the epochs are walked once.
func (pr *Profiler) addSpan(route []int, start, end sim.Time) {
	for t := start; t < end; {
		e := pr.epochAt(t)
		// Recompute the epoch edge after epochAt, which may rescale.
		edge := (t/pr.epochLen + 1) * pr.epochLen
		if edge > end {
			edge = end
		}
		for _, id := range route {
			pr.linkAt(e, id).Busy += edge - t
		}
		t = edge
	}
}

// flowXmit is the flow tier's observer: it attributes the flow's delay
// to the admission epoch's histogram and charges the flow's occupancy
// and waiting to its bottleneck resource.  The resource id space is the
// flow net's LinkSpace (directed links, then injection ports, then
// ejection ports), so per-link telemetry shows *which* resource the
// sharing happened on, through the unchanged encode format.
func (pr *Profiler) flowXmit(now sim.Time, x flow.Xmit, src, dst, bytes int) {
	dep := pr.epochAt(now)
	dep.hist[histBucket(x.End-now)]++
	l := pr.linkAt(dep, x.Bottleneck)
	l.Messages++
	l.Bytes += uint64(bytes)
	l.Wait += x.Wait
	route := [1]int{x.Bottleneck}
	pr.addSpan(route[:], x.Start, x.End)
}

// netXmit is the abstract network's observer: delays only, no links.
func (pr *Profiler) netXmit(now sim.Time, x logp.Xmit, src, dst int) {
	pr.epochAt(now).hist[histBucket(x.Deliver-now)]++
}

// Finish implements app.Instrument: it closes the final partial epoch
// and freezes the profile.
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

	p := &Profile{
		App:      res.Program,
		Machine:  pr.kind,
		Topology: pr.topo,
		P:        pr.p,
		NumLinks: pr.numLinks,
		EpochLen: pr.epochLen,
		Total:    pr.run.Total,
		Epochs:   make([]Epoch, 0, len(pr.epochs)),
	}
	for i := range pr.epochs {
		acc := &pr.epochs[i]
		ep := Epoch{Procs: acc.procs, Hist: acc.hist}
		if len(acc.links.samples) > 0 {
			ep.Links = acc.links.sorted()
		}
		p.Epochs = append(p.Epochs, ep)
	}
	// Drop trailing empty epochs created by in-flight transmissions
	// that never extended past the run's completion.
	for len(p.Epochs) > 0 && p.EpochStart(len(p.Epochs)-1) > p.Total {
		p.Epochs = p.Epochs[:len(p.Epochs)-1]
	}
	// Flush the unemitted tail (the final partial epoch, and any earlier
	// epochs the last boundary crossing had not reached).
	pr.emitClosed(len(p.Epochs), true)
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
