package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
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

// streamHub is a job's event log for live streaming: the worker appends
// events as the run executes, and any number of subscribers replay the
// log from the start and then follow the tail.  Keeping the full log
// (rather than fan-out channels) means a subscriber attaching mid-run
// sees every epoch, a slow subscriber loses nothing, and nobody can
// block the simulation goroutine.  The log is the events' SSE frames,
// rendered back to back into fixed-size chunks, so an epoch costs its
// bytes and nothing else: no boxed document, no marshal, no channel,
// and no copy of the log as it grows.  It is bounded by the probe's
// epoch budget, and it dies with the job.
type streamHub struct {
	mu     sync.Mutex
	chunk  []byte   // the chunk being filled
	frames [][]byte // each in a chunk; bytes once written never change
	done   bool
	subs   []chan struct{} // one per subscriber, signaled on every append
}

// Log chunks hold hubChunk bytes; a frame starts a new chunk when fewer
// than maxEpochFrame bytes are left, the most an epoch frame takes.
const (
	hubChunk      = 8 << 10
	maxEpochFrame = 1 << 10
)

func newStreamHub() *streamHub { return &streamHub{} }

// room makes sure the current chunk has n bytes free; h.mu is held.
func (h *streamHub) room(n int) {
	if cap(h.chunk)-len(h.chunk) < n {
		h.chunk = make([]byte, 0, max(hubChunk, n))
	}
}

// publish appends one event.  v is marshaled immediately so the caller
// never retains shared state in the log.
func (h *streamHub) publish(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	h.mu.Lock()
	if !h.done {
		h.room(len(name) + len(data) + len("event: \ndata: \n\n"))
		h.appended(len(h.chunk), appendFrame(h.chunk, name, data))
	}
	h.mu.Unlock()
}

// publishEpoch renders one live profile epoch straight into the log.
// It runs on the simulation goroutine, through the probe's OnEpoch hook.
func (h *streamHub) publishEpoch(ev probe.EpochEvent) {
	h.mu.Lock()
	if !h.done {
		h.room(maxEpochFrame)
		h.appended(len(h.chunk), appendEpochFrame(h.chunk, ev))
	}
	h.mu.Unlock()
}

// appended records the frame written into chunk from start on and wakes
// every subscriber; h.mu is held.
func (h *streamHub) appended(start int, chunk []byte) {
	h.chunk = chunk
	h.frames = append(h.frames, chunk[start:len(chunk):len(chunk)])
	h.notify()
}

// notify signals every subscriber without blocking: a subscriber's
// channel holds one pending wake-up, which covers any number of appends.
func (h *streamHub) notify() {
	for _, c := range h.subs {
		select {
		case c <- struct{}{}:
		default:
		}
	}
}

// finish seals the log: no further events, and every subscriber wakes
// to find it sealed.  Idempotent.
func (h *streamHub) finish() {
	h.mu.Lock()
	if !h.done {
		h.done = true
		h.notify()
	}
	h.mu.Unlock()
}

// subscribe returns a channel signaled on every append and at finish,
// and the function that detaches it.
func (h *streamHub) subscribe() (<-chan struct{}, func()) {
	c := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs = append(h.subs, c)
	h.mu.Unlock()
	return c, func() {
		h.mu.Lock()
		if i := slices.Index(h.subs, c); i >= 0 {
			h.subs = slices.Delete(h.subs, i, i+1)
		}
		h.mu.Unlock()
	}
}

// snapshot returns the frames at and past index i and whether the log
// is sealed.  The returned slice is capped so subscribers can never see
// later appends through it.
func (h *streamHub) snapshot(i int) (frames [][]byte, done bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if i < len(h.frames) {
		frames = h.frames[i:len(h.frames):len(h.frames)]
	}
	return frames, h.done
}

// appendFrame appends one SSE frame carrying data to b.
func appendFrame(b []byte, name string, data []byte) []byte {
	b = append(b, "event: "...)
	b = append(b, name...)
	b = append(b, "\ndata: "...)
	b = append(b, data...)
	return append(b, "\n\n"...)
}

// appendEpochFrame appends the SSE frame of one live profile epoch to
// b.  The data is the epoch's JSON document:
//
//	index, epoch_us, start_us   the epoch's index at the resolution
//	                            current when it fired, and its window
//	compute_us … sync_us        the overhead buckets summed over processors
//	misses, invals, writebacks, messages
//	link_util, max_link_util    mean and busiest-link utilization, omitted
//	                            when zero (no per-link telemetry)
//	final                       true for the tail flushed at completion
//
// Epochs are provisional: after a profile rescale the covered timeline
// is re-emitted at the doubled epoch_us, so consumers reconciling a
// timeline must treat a new event overlapping an earlier window as its
// replacement.  The canonical profile remains GET /v1/runs/{id}/profile
// after completion.  The bytes are those encoding/json writes for the
// same document (every value is finite: Utilization divides by a
// positive epoch length and link count, or returns zeros).
func appendEpochFrame(b []byte, ev probe.EpochEvent) []byte {
	mean, peak := ev.Utilization()
	b = append(b, "event: "+eventEpoch+"\ndata: {\"index\":"...)
	b = strconv.AppendInt(b, int64(ev.Index), 10)
	b = appendFloat(append(b, `,"epoch_us":`...), ev.EpochLen.Micros())
	b = appendFloat(append(b, `,"start_us":`...), ev.Start.Micros())
	b = appendFloat(append(b, `,"compute_us":`...), ev.Buckets[stats.Compute].Micros())
	b = appendFloat(append(b, `,"memory_us":`...), ev.Buckets[stats.Memory].Micros())
	b = appendFloat(append(b, `,"latency_us":`...), ev.Buckets[stats.Latency].Micros())
	b = appendFloat(append(b, `,"contention_us":`...), ev.Buckets[stats.Contention].Micros())
	b = appendFloat(append(b, `,"sync_us":`...), ev.Buckets[stats.Sync].Micros())
	b = strconv.AppendUint(append(b, `,"misses":`...), ev.Misses, 10)
	b = strconv.AppendUint(append(b, `,"invals":`...), ev.Invals, 10)
	b = strconv.AppendUint(append(b, `,"writebacks":`...), ev.Writebacks, 10)
	b = strconv.AppendUint(append(b, `,"messages":`...), ev.Messages, 10)
	if mean != 0 {
		b = appendFloat(append(b, `,"link_util":`...), mean)
	}
	if peak != 0 {
		b = appendFloat(append(b, `,"max_link_util":`...), peak)
	}
	if ev.Final {
		b = append(b, `,"final":true`...)
	}
	return append(b, "}\n\n"...)
}

// appendFloat formats f as encoding/json does: shortest round-trip
// digits, in exponent form only below 1e-6 or from 1e21 on, with the
// exponent's leading zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
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
	s.metrics.streamsOpened.Add(1)
	s.metrics.streamsActive.Add(1)
	defer s.metrics.streamsActive.Add(-1)

	write := func(name string, data []byte) { w.Write(appendFrame(nil, name, data)) }

	s.mu.Lock()
	hub, st := j.hub, j.status()
	s.mu.Unlock()

	if hub == nil {
		// No live feed: one state event now, the result when it lands.
		if terminalState(st.State) {
			data, _ := json.Marshal(st)
			write(eventResult, data)
			fl.Flush()
			return
		}
		data, _ := json.Marshal(st)
		write(eventState, data)
		fl.Flush()
		select {
		case <-j.done:
		case <-r.Context().Done():
			return
		}
		s.mu.Lock()
		data, _ = json.Marshal(statusFromEntry(j.entry, false))
		s.mu.Unlock()
		write(eventResult, data)
		fl.Flush()
		return
	}

	// Live feed: announce the current state, then replay the hub's log
	// and follow its tail.
	data, _ := json.Marshal(st)
	write(eventState, data)
	fl.Flush()

	wait, unsubscribe := hub.subscribe()
	defer unsubscribe()
	keep := time.NewTicker(15 * time.Second)
	defer keep.Stop()
	i := 0
	for {
		frames, done := hub.snapshot(i)
		if len(frames) > 0 {
			for _, f := range frames {
				w.Write(f)
			}
			i += len(frames)
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
