package probe

// The reference accumulator: the probe as it was before its accumulators
// became flat (an open-addressing index per epoch's link table, a sort of
// the merged-in table on every rescale, a heap slice per epoch's
// processor samples).  It is kept, unoptimized, as the oracle that
// TestProbeMatchesReference holds the production Profiler to: both must
// encode identical profiles and emit identical OnEpoch sequences.

import (
	"cmp"
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

// refEpoch is one epoch under accumulation.
type refEpoch struct {
	procs []ProcSample
	links refLinkTable
	hist  [HistBuckets]uint64
}

// reset empties the accumulator for a new epoch, keeping the buffers of
// one a rescale merged away, so a run holds at most MaxEpochs × P
// samples however many epochs it opens.
func (e *refEpoch) reset(p int) {
	if e.procs == nil {
		e.procs = make([]ProcSample, p)
	} else {
		clear(e.procs)
	}
	e.links.reset()
	e.hist = [HistBuckets]uint64{}
}

// refLinkTable is one epoch's link samples in first-touch order, indexed by
// an open-addressing table from link id to position: two flat slices per
// epoch instead of a heap object per (epoch, link).
type refLinkTable struct {
	samples []LinkSample
	index   []int32 // position+1, 0 when empty; power-of-two length, at most half full
}

// find returns link id's sample, or nil and the index slot it would take.
func (t *refLinkTable) find(id int) (*LinkSample, int) {
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
func (t *refLinkTable) add(id, slot int) *LinkSample {
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
func (t *refLinkTable) reset() {
	t.samples = t.samples[:0]
	clear(t.index)
}

// sorted orders the samples by link id in place, which leaves the index
// stale: the table is only read, merged away or handed to a Profile
// afterwards.
func (t *refLinkTable) sorted() []LinkSample {
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
func (e *refEpoch) link(id, budget, ovfID int) *LinkSample {
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
func (e *refEpoch) merge(o *refEpoch, budget, ovfID int) {
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

// refProfiler samples one run.  Create with New, pass to app.Execute as
// Options.Instrument (or use the spasm.Execute façade), then read
// Profile.
type refProfiler struct {
	onEpoch func(EpochEvent)

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
	epochs    []refEpoch // past len: accumulators a rescale merged away
	closed    int        // fully closed epochs; epoch `closed` is open
	emitted   int        // epochs already fired through onEpoch
	snap      []procSnap

	profile *Profile
}

// newReference returns a reference profiler with the given epoch caps
// (DefaultMaxEpochs and DefaultMaxLinks when below 2 and 1).
func newReference(onEpoch func(EpochEvent), maxEpochs, maxLinks int) *refProfiler {
	if maxEpochs < 2 {
		maxEpochs = DefaultMaxEpochs
	}
	if maxLinks < 1 {
		maxLinks = DefaultMaxLinks
	}
	return &refProfiler{onEpoch: onEpoch, epochLen: DefaultEpoch,
		maxEpochs: maxEpochs, maxLinks: maxLinks}
}

// linkAt returns epoch e's accumulator for link id under the profiler's
// budget; the overflow aggregate sits at id NumLinks (the id space on
// the machine being profiled — the fabric's links or the flow tier's
// resource space).  An epoch's first link sizes its table for the most
// links any epoch has held so far.
func (pr *refProfiler) linkAt(e *refEpoch, id int) *LinkSample {
	if cap(e.links.samples) == 0 {
		e.links.samples = make([]LinkSample, 0, pr.linksHigh)
	}
	l := e.link(id, pr.maxLinks, pr.numLinks)
	pr.linksHigh = max(pr.linksHigh, len(e.links.samples))
	return l
}

// Attach implements app.Instrument: it hooks the engine clock and, when
// the machine has one, the detailed fabric or the abstract network.
func (pr *refProfiler) Attach(cfg machine.Config, eng *sim.Engine, run *stats.Run, m machine.Machine) {
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
func (pr *refProfiler) boundary() sim.Time {
	return sim.Time(pr.closed+1) * pr.epochLen
}

// tick snapshots whenever the engine clock crosses an epoch boundary.
func (pr *refProfiler) tick(now sim.Time) {
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
func (pr *refProfiler) snapAll() {
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
func (pr *refProfiler) spread(i int, d *ProcSample, a, b sim.Time) {
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
func (pr *refProfiler) epochAt(t sim.Time) *refEpoch {
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
			pr.epochs = append(pr.epochs, refEpoch{})
		}
		pr.epochs[n].reset(pr.p)
	}
	return &pr.epochs[idx]
}

// rescale halves the profile's resolution: adjacent epochs merge
// pairwise and the epoch length doubles.
func (pr *refProfiler) rescale() {
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
func (pr *refProfiler) fabricXmit(now sim.Time, x network.Xmit, src, dst, bytes int, route []int) {
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
func (pr *refProfiler) addSpan(route []int, start, end sim.Time) {
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
func (pr *refProfiler) flowXmit(now sim.Time, x flow.Xmit, src, dst, bytes int) {
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
func (pr *refProfiler) netXmit(now sim.Time, x logp.Xmit, src, dst int) {
	pr.epochAt(now).hist[histBucket(x.Deliver-now)]++
}

// Finish implements app.Instrument: it closes the final partial epoch
// and freezes the profile.
func (pr *refProfiler) Finish(res *app.Result) {
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
func (pr *refProfiler) Profile() *Profile {
	if pr.profile == nil {
		panic("probe: Profile before the run finished")
	}
	return pr.profile
}

// event renders epoch idx's accumulator as an EpochEvent.
func (pr *refProfiler) event(idx int, final bool) EpochEvent {
	ev := EpochEvent{
		Index:    idx,
		EpochLen: pr.epochLen,
		Start:    sim.Time(idx) * pr.epochLen,
		NumLinks: pr.numLinks,
		Final:    final,
	}
	acc := &pr.epochs[idx]
	for i := range acc.procs {
		ps := &acc.procs[i]
		for b := range ps.Buckets {
			ev.Buckets[b] += ps.Buckets[b]
		}
		ev.Misses += ps.Misses
		ev.Invals += ps.Invals
		ev.Writebacks += ps.Writebacks
		ev.Messages += ps.Messages
	}
	for _, l := range acc.links.samples {
		ev.LinkBusy += l.Busy
		if l.Busy > ev.LinkPeak {
			ev.LinkPeak = l.Busy
		}
	}
	return ev
}

// emitClosed fires the OnEpoch hook for every epoch below limit not yet
// emitted.  It runs synchronously on the simulation goroutine, so the
// hook must be cheap and must not re-enter the profiler.
func (pr *refProfiler) emitClosed(limit int, final bool) {
	if pr.onEpoch == nil {
		return
	}
	if limit > len(pr.epochs) {
		limit = len(pr.epochs)
	}
	for ; pr.emitted < limit; pr.emitted++ {
		pr.onEpoch(pr.event(pr.emitted, final))
	}
}
