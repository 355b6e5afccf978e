// Package service turns the spasm simulator into a long-lived
// simulation-as-a-service daemon: an HTTP JSON API over a job queue, a
// bounded worker pool, and a content-addressed result cache.
//
// The design leans on one property of the simulator: a run is a
// deterministic function of its canonical spec (spasm.Spec).  That makes
// specs content addresses — the job ID is the spec's SHA-256 — and it
// makes results safe to cache forever:
//
//   - Submitting a spec whose result is cached returns the stored,
//     byte-identical statistics immediately (a cache hit).
//   - Submitting a spec that is already queued or running coalesces onto
//     the in-flight job instead of simulating twice.
//   - Otherwise the job is queued and executed by one of a fixed pool of
//     workers (default GOMAXPROCS — each simulation is internally
//     single-threaded, so that saturates the host without oversubscribing).
//
// Figure and sweep requests decompose into their underlying runs, which
// flow through the same queue and cache; repeating a figure request
// re-simulates nothing.
//
// Completed results are held in an LRU cache bounded by entry count and,
// when Config.Store is set, persisted to a disk-backed store below it:
// byte-determinism makes results permanent, so a restarted daemon warms
// from disk instead of re-simulating.  The pending queue is shared
// fairly across tenants (equal shares, served round robin, with
// per-tenant admission quotas), and runs can be followed live over SSE.  Hits,
// misses and evictions are exported on /metrics along with queue depth,
// worker utilization and per-endpoint latency histograms.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"sync"

	"spasm"
	"spasm/internal/faults"
	"spasm/internal/probe"
	"spasm/internal/report"
	"spasm/internal/service/store"
	"spasm/internal/stats"
)

// Config parameterizes a Server.
type Config struct {
	// Workers bounds simulation concurrency (default GOMAXPROCS;
	// each simulation is single-threaded, so this saturates the host).
	Workers int
	// CacheSize bounds the result cache, in entries (default 512).
	CacheSize int
	// QueueDepth bounds the pending-job queue (default 1024); Submit
	// fails with ErrQueueFull beyond it.
	QueueDepth int
	// RunTimeout bounds each job's wall-clock simulation time.  A run
	// past the deadline is aborted cooperatively (every simulated
	// process unwinds, nothing leaks) and the job fails with a timeout
	// error; its pooled run context is discarded rather than reused.
	// Zero (the default) means unbounded.
	RunTimeout time.Duration
	// Store, when set, is the durable result tier below the in-memory
	// LRU: completed runs (and their profiles) are written through to
	// it, and cache misses read through it before simulating.  Nil
	// (the default) keeps the daemon memory-only.
	Store *store.Store
	// MaxBodyBytes caps each request body (default 1 MiB); larger
	// submissions are rejected with HTTP 413.
	MaxBodyBytes int64
	// TenantQuotaRuns bounds one tenant's outstanding (queued plus
	// running) jobs; past it, submissions fail with ErrTenantQuota.
	// Zero (the default) means unlimited.
	TenantQuotaRuns int
	// TenantQuotaBytes bounds the sum of request-body bytes a tenant
	// may hold queued.  Zero (the default) means unlimited.
	TenantQuotaBytes int64
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize < 1 {
		c.CacheSize = 512
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	if c.MaxBodyBytes < 1 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// State is a job's lifecycle state.
type State string

// Job lifecycle states, as reported by the API.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
	// StateCanceled marks a job dropped before execution because every
	// waiter abandoned it (see submitWaited).  Canceled outcomes are
	// never cached: they reflect client behaviour, not the spec.
	StateCanceled State = "canceled"
)

// Submission errors.
var (
	// ErrDraining is returned once Shutdown has begun.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrQueueFull is returned when the pending queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrUnknownRun is returned by Profile for an id that is neither
	// active nor cached.
	ErrUnknownRun = errors.New("service: no such run")
	// ErrRunActive is returned by Profile while the run is still
	// pending or running.
	ErrRunActive = errors.New("service: run not complete yet")
)

// Job is one queued, running, or completed simulation.  Its ID is the
// content address of its spec, so identical submissions share a Job.
type Job struct {
	id   string
	spec spasm.Spec
	req  RunRequest

	// tenant and bytes drive fair-share admission: the tenant bucket
	// the job queues under, and the request-body weight charged against
	// that tenant's byte quota while the job is pending.
	tenant string
	bytes  int64

	// state and entry are guarded by the owning Server's mutex; entry
	// is also safely readable by anyone who has observed done closed.
	state State
	entry *entry
	done  chan struct{}

	// hub, when non-nil, is the job's live event log: it exists only if
	// a streaming client attached while the job was still pending, and
	// its presence at dispatch makes the worker run the instrumented
	// path that emits per-epoch events.  Set under the Server's mutex
	// before the job reaches StateRunning; never replaced afterwards.
	hub *streamHub

	// cached marks a job answered straight from a cache — positive,
	// negative, or the disk store — so the HTTP layer can report 200
	// instead of 202.
	cached bool
	// profileOf, when set, makes the job a profile derivation: it
	// re-runs that finished run's spec with the probe attached and, on
	// success, memoizes the profile on the run's cache entry instead of
	// publishing a result of its own.  Its id is profileKey(profileOf).
	profileOf string

	// waiters and pinned drive pre-execution cancellation: waiters
	// counts the submitWaited registrations still attached, and pinned
	// marks a job with at least one plain Submit (poll-based clients
	// never release, so their jobs are never canceled).  A pending job
	// whose last waiter releases — and that is not pinned — is dropped
	// before it burns a worker.  Guarded by the Server's mutex.
	waiters int
	pinned  bool
}

// status is the job's wire status: its finished entry once it has one,
// else its live state.  The caller holds the owning Server's mutex.
func (j *Job) status() RunStatus {
	if j.entry != nil {
		return statusFromEntry(j.entry, j.cached)
	}
	return RunStatus{ID: j.id, State: j.state, Spec: j.req}
}

// closedChan is the pre-closed done channel shared by cache-hit jobs.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Server owns the job queue, the worker pool, and admission; finished
// runs live in its resultTier.  Create one with New, expose it with
// Handler, stop it with Shutdown.
type Server struct {
	cfg     Config
	metrics *Metrics
	results *resultTier // finished runs: LRU, durable store, negative cache

	mu       sync.Mutex
	cond     *sync.Cond      // signals workers on fq.push and on drain
	active   map[string]*Job // pending + running jobs by ID
	fq       *fairQueue      // pending jobs, fair across tenants
	draining bool

	// pool holds reusable run contexts shared by the workers, so the
	// daemon amortizes machine construction across the jobs it executes;
	// its hit/miss/live counters are exported on /metrics.
	pool *spasm.RunPool

	workers sync.WaitGroup
}

// New starts a Server with cfg.Workers worker goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	idle := 2 * cfg.Workers
	if idle < 16 {
		idle = 16
	}
	s := &Server{
		cfg:     cfg,
		metrics: newMetrics(time.Now(), cfg.Workers),
		results: newResultTier(cfg),
		active:  make(map[string]*Job),
		fq:      newFairQueue(cfg),
		pool:    spasm.NewRunPool(idle),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// submitOpts carries the admission parameters of one submission.
type submitOpts struct {
	// tenant is the fair-share bucket ("" means DefaultTenant).
	tenant string
	// bytes is the request-body size charged against the tenant's byte
	// quota while the job is queued (0 for in-process submissions).
	bytes int64
	// pin marks a plain Submit: the job executes even if every waiter
	// departs.
	pin bool
	// stream creates the job's live event hub atomically with the job,
	// so the dispatching worker is guaranteed to see it and run the
	// instrumented path — a hub attached any later might miss the start.
	stream bool
}

// Submit registers a run for execution and returns its job plus whether
// the result was served from the (positive) cache.  An invalid spec
// fails immediately; an identical in-flight submission coalesces onto
// the existing job; a cached result — in memory or in the durable
// store — returns a completed job at once: successes report hit=true,
// remembered failures report hit=false with the job already failed and
// Job.cached set.  Jobs submitted this way are pinned: they execute
// even if every waiting client goes away (poll-based clients never
// signal departure).
func (s *Server) Submit(spec spasm.Spec) (job *Job, hit bool, err error) {
	return s.submit(spec, submitOpts{pin: true})
}

// submitWaited is submit for clients that stay attached to the result
// (a stream, a figure's points): it registers the caller as a waiter and
// returns a release function the caller must invoke exactly once when it
// stops caring (normally deferred).  A pending job whose waiters all
// release — and that no plain Submit pinned — is canceled before it
// reaches a worker: its state becomes StateCanceled, done closes, and
// nothing is cached.  Jobs already running are never canceled (the
// simulation's cost is sunk; its deterministic result is worth keeping).
func (s *Server) submitWaited(spec spasm.Spec, opt submitOpts) (job *Job, hit bool, release func(), err error) {
	opt.pin = false
	j, hit, err := s.submit(spec, opt)
	if err != nil {
		return nil, false, nil, err
	}
	var once sync.Once
	return j, hit, func() { once.Do(func() { s.releaseWaiter(j) }) }, nil
}

func (s *Server) submit(spec spasm.Spec, opt submitOpts) (job *Job, hit bool, err error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, false, &RequestError{Err: err}
	}
	id := spec.Hash()

	s.mu.Lock()
	if j, ok := s.active[id]; ok {
		if opt.pin {
			j.pinned = true
		} else {
			j.waiters++
		}
		if opt.stream && j.state == StatePending && j.hub == nil {
			j.hub = newStreamHub()
		}
		s.mu.Unlock()
		s.metrics.coalesced.Add(1)
		return j, false, nil
	}
	if e, ok := s.results.lookup(id, true); ok {
		// Already finished, by this process or an earlier one: no worker
		// is burned.
		s.mu.Unlock()
		return cachedJob(e), e.err == "", nil
	}
	j := &Job{id: id, spec: spec, req: RequestFromSpec(spec), state: StatePending,
		done: make(chan struct{}), tenant: opt.tenant, bytes: opt.bytes}
	if opt.pin {
		j.pinned = true
	} else {
		j.waiters = 1
	}
	if opt.stream {
		j.hub = newStreamHub()
	}
	if err := s.enqueue(j); err != nil {
		return nil, false, err
	}
	return j, false, nil
}

// enqueue admits a new job to the fair queue and the active set, under
// DefaultTenant when it names none.  The caller holds s.mu; enqueue
// releases it and counts the outcome.
func (s *Server) enqueue(j *Job) error {
	if j.tenant == "" {
		j.tenant = DefaultTenant
	}
	err := ErrDraining
	if !s.draining {
		if err = s.fq.push(j); err == nil {
			s.active[j.id] = j
			s.cond.Signal()
		}
	}
	tenant := j.tenant // push may rewrite it to the overflow bucket
	s.mu.Unlock()
	switch {
	case err == nil:
		s.metrics.submitted.Add(1)
		s.metrics.tenant(tenant).submitted.Add(1)
	case errors.Is(err, ErrTenantQuota):
		s.metrics.tenant(tenant).rejected.Add(1)
	case !errors.Is(err, ErrDraining):
		s.metrics.rejected.Add(1)
	}
	return err
}

// cachedJob wraps a finished run as an already-completed job.
func cachedJob(e *entry) *Job {
	return &Job{id: e.id, req: e.req, state: e.state(), entry: e, done: closedChan, cached: true}
}

// releaseWaiter detaches one submitWaited (or stream) registration from
// j.  When the last waiter of an unpinned, still-pending job departs,
// the job is canceled in place: it leaves the active set and the fair
// queue (so a later identical submission starts fresh) and its Done
// closes.  Nothing is cached.
func (s *Server) releaseWaiter(j *Job) {
	s.mu.Lock()
	j.waiters--
	if j.waiters > 0 || j.pinned || j.state != StatePending {
		s.mu.Unlock()
		return
	}
	j.state = StateCanceled
	j.entry = &entry{id: j.id, req: j.req, err: "canceled: every waiter abandoned the job before execution", canceled: true}
	s.fq.remove(j)
	delete(s.active, j.id)
	hub, e := j.hub, j.entry
	s.mu.Unlock()
	close(j.done)
	if hub != nil {
		hub.publish(eventResult, statusFromEntry(e, false))
		hub.finish()
	}
	s.metrics.canceled.Add(1)
}

// nextJob blocks until a job is dispatchable or the drained queue shuts
// down.  Marking the job running happens under the same mutex as the
// dispatch itself, so waiter cancellation (which only touches
// StatePending jobs) can never race a worker pick-up.
func (s *Server) nextJob() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if j := s.fq.pop(); j != nil {
			j.state = StateRunning
			return j, true
		}
		if s.draining {
			return nil, false
		}
		s.cond.Wait()
	}
}

// worker executes queued jobs until the queue drains at shutdown.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		job, ok := s.nextJob()
		if !ok {
			return
		}
		faults.Fire(faults.WorkerStall)
		s.metrics.busy.Add(1)
		s.execute(job)
		s.metrics.busy.Add(-1)
	}
}

// execute runs one dispatched job to completion.  Jobs with a live
// stream hub run the instrumented path: the probe's epoch emissions feed
// the hub as the simulation executes, and the finished profile is
// memoized so the first /profile request after a streamed run is free.
// Everything else runs the plain path.
func (s *Server) execute(job *Job) {
	hub := job.hub
	if hub != nil {
		hub.publish(eventState, RunStatus{ID: job.id, State: StateRunning, Spec: job.req})
	}

	e := &entry{id: job.id, req: job.req}
	var live *spasm.ProfileConfig
	if hub != nil {
		live = s.liveProfile(hub)
	} else if job.profileOf != "" {
		live = &spasm.ProfileConfig{}
	}
	res, prof, err := s.runSafely(job.spec, live)
	if err == nil {
		switch {
		case res.Par == nil:
		case res.Par.Parallel:
			s.metrics.runsParallel.Add(1)
		default:
			s.metrics.parFallbacks.Add(1)
		}
		err = faults.Fire(faults.Marshal)
	}
	if err == nil {
		if e.doc, err = json.Marshal(report.RunJSON(res)); err == nil {
			e.stats = res.Stats
		}
	}
	if err == nil && prof != nil {
		if raw, encErr := encodeProfile(prof); encErr == nil {
			e.prof, e.profBytes = prof, raw
		}
	}
	timedOut := errors.Is(err, spasm.ErrRunTimeout)
	if err != nil {
		e.err = err.Error()
	}
	s.finish(job, e, timedOut)
}

// liveProfile is a streamed run's probe configuration: every epoch the
// probe closes is rendered into hub's log as it closes.
func (s *Server) liveProfile(hub *streamHub) *spasm.ProfileConfig {
	return &spasm.ProfileConfig{OnEpoch: func(ev probe.EpochEvent) {
		hub.publishEpoch(ev)
		s.metrics.streamEvents.Add(1)
	}}
}

// runSafely is the one guarded way the daemon simulates: on the
// server's context pool, under the configured wall-clock deadline, behind
// the RunExec fault point, with panics converted to errors.  A simulator
// bug thus fails the one request — deterministically, so the failure is
// cacheable — rather than killing the server, and no simulation a client can
// start escapes the operator's RunTimeout.  Pooled runs are
// bit-identical to fresh ones, and a run that fails — aborted, panicked,
// or otherwise — discards its pooled context instead of returning it.
// A non-nil profile attaches the probe (its OnEpoch fires live as epochs
// close); profiling does not perturb results, so the RunDoc is the same
// either way.
func (s *Server) runSafely(spec spasm.Spec, profile *spasm.ProfileConfig) (res *spasm.Result, prof *probe.Profile, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, prof, err = nil, nil, fmt.Errorf("run panicked: %v", r)
		}
	}()
	if err := faults.Fire(faults.RunExec); err != nil {
		return nil, nil, err
	}
	return spasm.Execute(spec, spasm.RunOptions{
		Pool:    s.pool,
		Control: spasm.RunControl{Timeout: s.cfg.RunTimeout},
		Profile: profile,
	})
}

// finish publishes a job's result: the entry into the result tier, the
// job out of the active set and its tenant's run quota, and the outcome
// to anyone blocked on Done or subscribed to the stream.
func (s *Server) finish(job *Job, e *entry, timedOut bool) {
	// Count before anything announces the outcome (the result tier, the
	// done channel, the stream hub): a client that learns of the result
	// and then reads /metrics must find it already counted.
	if e.err == "" {
		s.metrics.done.Add(1)
	} else {
		s.metrics.failed.Add(1)
		if timedOut {
			s.metrics.timeouts.Add(1)
		}
	}
	if job.profileOf == "" {
		s.results.publish(e)
	} else if e.prof != nil {
		s.results.memoize(job.profileOf, e.prof, e.profBytes)
	}
	s.mu.Lock()
	job.entry = e
	job.state = e.state()
	s.fq.jobDone(job)
	delete(s.active, job.id)
	s.mu.Unlock()
	close(job.done)
	if job.hub != nil {
		job.hub.publish(eventResult, statusFromEntry(e, false))
		job.hub.finish()
	}
}

// Wait blocks until the job completes or ctx is cancelled, then returns
// its final status.
func (s *Server) Wait(ctx context.Context, j *Job) (RunStatus, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return RunStatus{}, ctx.Err()
	}
	return statusFromEntry(j.entry, false), nil
}

// Status reports a job by ID: an active (pending/running) job, or a
// finished one the result tier still holds.
func (s *Server) Status(id string) (RunStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.active[id]; ok {
		return j.status(), true
	}
	if e, ok := s.results.lookup(id, false); ok {
		return statusFromEntry(e, false), true
	}
	return RunStatus{}, false
}

// runStats submits a spec (deduplicated and cached like any other
// submission) and blocks for its statistics — the execution path behind
// figure and sweep requests, injected into exp.Session as its Runner.
// It registers as a releasable waiter: when the request's context dies
// before the job runs, the release lets the server cancel the pending
// work instead of simulating for nobody.
func (s *Server) runStats(ctx context.Context, spec spasm.Spec, tenant string) (*stats.Run, error) {
	j, _, release, err := s.submitWaited(spec, submitOpts{tenant: tenant})
	if err != nil {
		return nil, err
	}
	defer release()
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if j.entry.err != "" {
		return nil, fmt.Errorf("service: run %s: %s", j.id[:12], j.entry.err)
	}
	return j.entry.stats, nil
}

// Profile returns a completed run's time-resolved telemetry: the
// decoded profile and its canonical binary encoding (byte-identical on
// every call for the same spec).  The profile is computed on first
// request — by re-running the spec with the probe attached, which is
// sound because profiles are deterministic — and memoized on the run's
// cache entry (streamed runs arrive pre-memoized; the durable store
// warms it across restarts).  The derivation is a job on the queue,
// charged to tenant, so Workers bounds it like every other simulation;
// concurrent requests for one id join that one job and read its own
// entry, so an LRU eviction racing the derivation can neither lose the
// answer nor double-count it.  It returns ErrUnknownRun for ids that are
// neither active nor cached, ErrRunActive while the run is still in
// flight, the queue's admission errors, and the run's own error for
// failed runs.
func (s *Server) Profile(id, tenant string) (*probe.Profile, []byte, error) {
	// Each request is counted exactly once: a hit (memoized encoding was
	// already there), a miss (this request queued the derivation), or
	// coalesced (joined another request's derivation).
	s.mu.Lock()
	if _, ok := s.active[id]; ok {
		s.mu.Unlock()
		return nil, nil, ErrRunActive
	}
	j, joined := s.active[profileKey(id)]
	if joined {
		s.mu.Unlock()
		s.metrics.profCoalesced.Add(1)
	} else {
		e, ok := s.results.profile(id)
		switch {
		case !ok:
			s.mu.Unlock()
			return nil, nil, ErrUnknownRun
		case e.err != "":
			s.mu.Unlock()
			return nil, nil, fmt.Errorf("service: run %s failed: %s", id[:12], e.err)
		case e.prof != nil:
			s.mu.Unlock()
			s.metrics.profHits.Add(1)
			return e.prof, e.profBytes, nil
		}
		spec, err := e.req.Spec()
		if err != nil {
			s.mu.Unlock()
			return nil, nil, err
		}
		j = &Job{id: profileKey(id), spec: spec, req: e.req, profileOf: id, state: StatePending,
			done: make(chan struct{}), tenant: tenant, pinned: true}
		if err := s.enqueue(j); err != nil {
			return nil, nil, err
		}
		s.metrics.profMiss.Add(1)
	}
	<-j.done
	if j.entry.err != "" {
		return nil, nil, errors.New(j.entry.err)
	}
	return j.entry.prof, j.entry.profBytes, nil
}

// profileKey is the active-set key of the job deriving run id's profile.
func profileKey(id string) string { return "profile/" + id }

// encodeProfile returns prof's canonical encoding in a buffer sized once.
func encodeProfile(prof *probe.Profile) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, prof.EncodedLen()))
	_, err := prof.Encode(buf)
	return buf.Bytes(), err
}

// QueueDepth reports the number of jobs waiting for a worker.
func (s *Server) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fq.size
}

// Shutdown stops accepting new jobs and drains the queue: every job
// already accepted — queued or in flight — completes before Shutdown
// returns (or ctx expires).  Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RequestError marks a client-side (HTTP 400) submission error.
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }
