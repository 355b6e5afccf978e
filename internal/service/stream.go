package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"spasm/internal/probe"
	"spasm/internal/stats"
)

// SSE event names on /v1/runs/{id}/stream.
const (
	eventState  = "state"  // lifecycle transition (RunStatus JSON)
	eventEpoch  = "epoch"  // one live profile epoch (streamEpochDoc JSON)
	eventResult = "result" // terminal status with the RunDoc (RunStatus JSON)
)

// streamEvent is one rendered SSE event.
type streamEvent struct {
	name string
	data []byte
}

// streamHub is a job's event log for live streaming: the worker appends
// events as the run executes, and any number of subscribers replay the
// log from the start and then follow the tail.  Keeping the full log
// (rather than fan-out channels) means a subscriber attaching mid-run
// sees every epoch, a slow subscriber loses nothing, and nobody can
// block the simulation goroutine.  The log is bounded by the probe's
// epoch budget, and it dies with the job.
type streamHub struct {
	mu     sync.Mutex
	events []streamEvent
	done   bool
	update chan struct{} // closed and replaced on every append
}

func newStreamHub() *streamHub {
	return &streamHub{update: make(chan struct{})}
}

// publish appends one event.  v is marshaled immediately so the caller
// (often the simulation goroutine, via the probe's OnEpoch hook) never
// retains shared state in the log.
func (h *streamHub) publish(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.mu.Lock()
	if !h.done {
		h.events = append(h.events, streamEvent{name: name, data: data})
		close(h.update)
		h.update = make(chan struct{})
	}
	h.mu.Unlock()
}

// finish seals the log: no further events, and every subscriber's next
// wait returns immediately.  Idempotent.
func (h *streamHub) finish() {
	h.mu.Lock()
	if !h.done {
		h.done = true
		close(h.update)
	}
	h.mu.Unlock()
}

// snapshot returns the events at and past index i, whether the log is
// sealed, and a channel that closes on the next append (or is already
// closed once sealed).  The returned slice is capped so subscribers can
// never see later appends through it.
func (h *streamHub) snapshot(i int) (evs []streamEvent, done bool, wait <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < len(h.events) {
		evs = h.events[i:len(h.events):len(h.events)]
	}
	return evs, h.done, h.update
}

// streamEpochDoc is the wire form of one live profile epoch — the
// ProfileEpochDoc fields that are computable from a single epoch event,
// plus the event's own resolution.  Epochs are provisional: after a
// profile rescale the covered timeline is re-emitted at the doubled
// epoch_us, so consumers reconciling a timeline must treat a new event
// overlapping an earlier window as its replacement.  The canonical
// profile remains GET /v1/runs/{id}/profile after completion.
type streamEpochDoc struct {
	Index   int     `json:"index"`
	EpochUS float64 `json:"epoch_us"`
	StartUS float64 `json:"start_us"`

	ComputeUS    float64 `json:"compute_us"`
	MemoryUS     float64 `json:"memory_us"`
	LatencyUS    float64 `json:"latency_us"`
	ContentionUS float64 `json:"contention_us"`
	SyncUS       float64 `json:"sync_us"`

	Misses     uint64 `json:"misses"`
	Invals     uint64 `json:"invals"`
	Writebacks uint64 `json:"writebacks"`
	Messages   uint64 `json:"messages"`

	LinkUtil    float64 `json:"link_util,omitempty"`
	MaxLinkUtil float64 `json:"max_link_util,omitempty"`

	Final bool `json:"final,omitempty"`
}

// streamEpoch renders a probe epoch event for the SSE stream.
func streamEpoch(ev probe.EpochEvent) streamEpochDoc {
	d := streamEpochDoc{
		Index:        ev.Index,
		EpochUS:      ev.EpochLen.Micros(),
		StartUS:      ev.Start.Micros(),
		ComputeUS:    ev.Buckets[stats.Compute].Micros(),
		MemoryUS:     ev.Buckets[stats.Memory].Micros(),
		LatencyUS:    ev.Buckets[stats.Latency].Micros(),
		ContentionUS: ev.Buckets[stats.Contention].Micros(),
		SyncUS:       ev.Buckets[stats.Sync].Micros(),
		Misses:       ev.Misses,
		Invals:       ev.Invals,
		Writebacks:   ev.Writebacks,
		Messages:     ev.Messages,
		Final:        ev.Final,
	}
	d.LinkUtil, d.MaxLinkUtil = ev.Utilization()
	return d
}

// handleStream serves GET /v1/runs/{id}/stream: a Server-Sent-Events
// feed of the run's lifecycle.  For a job that streams from the start
// (submitted with ?stream=1, or attached to while still pending) the
// feed carries live "epoch" events as the probe closes epochs; a feed
// attached to an already-running job skips the epochs and delivers the
// terminal "result" only.  Completed runs — cached in memory or on disk
// — answer with their single "result" event immediately.
//
// The subscription counts as a waiter: a pending, unpinned job whose
// streaming clients all disconnect is canceled before it burns a
// worker, exactly like submitWaited departures.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	if j, ok := s.active[id]; ok {
		if j.state == StatePending && j.hub == nil {
			// First streaming subscriber before dispatch: the worker will
			// see the hub at pick-up and run the instrumented path.
			j.hub = newStreamHub()
		}
		j.waiters++
		s.mu.Unlock()
		var once sync.Once
		release := func() { once.Do(func() { s.releaseWaiter(j) }) }
		defer release()
		s.serveStream(w, r, j)
		return
	}
	e, ok := s.results.lookup(id, false)
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such run %q", id))
		return
	}
	s.serveStream(w, r, cachedJob(e))
}

// serveStream writes the SSE feed for j until the run completes or the
// client disconnects.  j's hub may be nil (no live epochs); j.done and
// j.entry then carry the terminal event.
func (s *Server) serveStream(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	s.metrics.streamOpen(1)
	defer s.metrics.streamOpen(-1)

	write := func(ev streamEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
	}

	s.mu.Lock()
	hub := j.hub
	st := RunStatus{ID: j.id, State: j.state, Spec: j.req}
	if j.entry != nil {
		st = statusFromEntry(j.entry, j.cached)
	}
	s.mu.Unlock()

	if hub == nil {
		// No live feed: one state event now, the result when it lands.
		if terminalState(st.State) {
			data, _ := json.Marshal(st)
			write(streamEvent{eventResult, data})
			fl.Flush()
			return
		}
		data, _ := json.Marshal(st)
		write(streamEvent{eventState, data})
		fl.Flush()
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
		s.mu.Lock()
		data, _ = json.Marshal(statusFromEntry(j.entry, false))
		s.mu.Unlock()
		write(streamEvent{eventResult, data})
		fl.Flush()
		return
	}

	// Live feed: announce the current state, then replay the hub's log
	// and follow its tail.
	data, _ := json.Marshal(st)
	write(streamEvent{eventState, data})
	fl.Flush()

	keep := time.NewTicker(15 * time.Second)
	defer keep.Stop()
	i := 0
	for {
		evs, done, wait := hub.snapshot(i)
		if len(evs) > 0 {
			for _, ev := range evs {
				write(ev)
			}
			i += len(evs)
			fl.Flush()
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-keep.C:
			// SSE comment line: keeps idle proxies from timing the
			// connection out during a long simulation.
			fmt.Fprint(w, ": keep-alive\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func terminalState(st State) bool {
	return st == StateDone || st == StateFailed || st == StateCanceled
}
