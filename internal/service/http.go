package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spasm"
	"spasm/internal/exp"
	"spasm/internal/machine"
	"spasm/internal/report"
	"spasm/internal/stats"
)

// Handler returns the service's HTTP API:
//
//	POST /v1/runs                submit a run (RunRequest); 202 pending, 200 on cache hit
//	                             (?stream=1 upgrades the response to the run's SSE feed)
//	GET  /v1/runs/{id}           poll a run by content address
//	GET  /v1/runs/{id}/stream    follow a run live over Server-Sent Events
//	GET  /v1/runs/{id}/profile   time-resolved telemetry (?format=json|csv|bin)
//	GET  /v1/figures/{n}         regenerate paper figure n (blocks; runs are cached)
//	GET  /v1/sweeps              ad-hoc sweep: ?app=&topo=&metric=&procs=&scale=&seed=
//	GET  /healthz                liveness (503 once draining)
//	GET  /metrics                Prometheus-style counters and latency histograms
//
// Submissions may carry an X-Spasm-Tenant header naming their fair-share
// bucket; absent or unusable names fall to the default tenant.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.instrument("/v1/runs", s.handleSubmit))
	mux.HandleFunc("GET /v1/runs/{id}", s.instrument("/v1/runs/{id}", s.handleGetRun))
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.instrument("/v1/runs/{id}/stream", s.handleStream))
	mux.HandleFunc("GET /v1/runs/{id}/profile", s.instrument("/v1/runs/{id}/profile", s.handleProfile))
	mux.HandleFunc("GET /v1/figures/{n}", s.instrument("/v1/figures/{n}", s.handleFigure))
	mux.HandleFunc("GET /v1/sweeps", s.instrument("/v1/sweeps", s.handleSweep))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// instrument wraps a handler with the per-endpoint latency histogram.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h(w, r)
		s.metrics.observe(path, time.Since(t0))
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte("\n"))
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

// writeError writes err under the status its kind maps to, or fallback
// for any other error: a client error is 400; back-pressure is 503 with
// a Retry-After hint — queue-full is transient (retry almost at once),
// draining means this instance is going away (give the balancer time to
// notice); a saturated tenant is 429, retried as soon as some of its
// own work drains; a profile of a run still in flight is 409.
func writeError(w http.ResponseWriter, err error, fallback int) {
	status, retry := fallback, ""
	var reqErr *RequestError
	switch {
	case errors.As(err, &reqErr):
		status = http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		status, retry = http.StatusServiceUnavailable, "5"
	case errors.Is(err, ErrQueueFull):
		status, retry = http.StatusServiceUnavailable, "1"
	case errors.Is(err, ErrTenantQuota):
		status, retry = http.StatusTooManyRequests, "1"
	case errors.Is(err, ErrRunActive):
		status, retry = http.StatusConflict, "1"
	}
	if retry != "" {
		w.Header().Set("Retry-After", retry)
	}
	writeErr(w, status, err)
}

// submitStatus maps a submission outcome to its HTTP form: 200 for a
// job answered from a cache (a stored success or a remembered failure),
// else 202 with the job's location.
func (s *Server) submitStatus(w http.ResponseWriter, j *Job, err error) {
	if err != nil {
		writeError(w, err, http.StatusBadRequest)
		return
	}
	status := http.StatusOK
	if !j.cached {
		status = http.StatusAccepted
		w.Header().Set("Location", "/v1/runs/"+j.id)
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	writeJSON(w, status, st)
}

// tenantOf extracts the request's fair-share bucket from the
// X-Spasm-Tenant header.  A name validTenant rejects falls to the
// default tenant rather than erroring (a tenant header is a hint, not a
// credential).
func tenantOf(r *http.Request) string {
	if name := r.Header.Get("X-Spasm-Tenant"); validTenant(name) {
		return name
	}
	return DefaultTenant
}

// decodeRunRequest parses a submission body strictly: one JSON object,
// nothing after it, and no field RunRequest does not declare — a
// misspelt or retired field would otherwise be dropped silently and the
// run cached under a spec the client did not ask for.
func decodeRunRequest(body []byte) (RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// encoding/json reports an undeclared field only as text.
		switch field, _ := strings.CutPrefix(err.Error(), "json: unknown field "); field {
		case `"adaptive"`, `"escalate_pct"`:
			return req, fmt.Errorf(`field %s: the adaptive-fidelity protocol was removed; `+
				`submit "machine":"target" for the detailed run`, field)
		}
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errors.New("data after the request object")
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.bodyLimited.Add(1)
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body over %d bytes", mbe.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	req, err := decodeRunRequest(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	spec, err := req.Spec()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opt := submitOpts{tenant: tenantOf(r), bytes: int64(len(body))}
	if r.URL.Query().Get("stream") != "" {
		// Streaming submission: the response is the run's SSE feed, and
		// the subscription holds the job alive exactly as long as the
		// client stays connected.
		opt.stream = true
		j, _, release, err := s.submitWaited(spec, opt)
		if err != nil {
			s.submitStatus(w, nil, err)
			return
		}
		defer release()
		s.serveStream(w, r, j)
		return
	}
	opt.pin = true
	j, _, err := s.submit(spec, opt)
	s.submitStatus(w, j, err)
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Status(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such run %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleProfile serves a completed run's time-resolved telemetry.
// The default form is the deterministic JSON document; ?format=csv
// renders one row per epoch and ?format=bin streams the canonical
// compact binary encoding (byte-identical for identical specs).
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	prof, raw, err := s.Profile(id, tenantOf(r))
	if errors.Is(err, ErrUnknownRun) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no such run %q", id))
		return
	}
	if err != nil {
		writeError(w, err, http.StatusUnprocessableEntity)
		return
	}
	switch r.URL.Query().Get("format") {
	case "", "json":
		writeJSON(w, http.StatusOK, report.ProfileJSON(prof))
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
		io.WriteString(w, report.ProfileCSV(prof))
	case "bin":
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(raw)
	default:
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (json, csv, bin)", r.URL.Query().Get("format")))
	}
}

// sweepOptions parses the query parameters shared by the figure and
// sweep endpoints into session options backed by the server's pool.
func (s *Server) sweepOptions(r *http.Request) (exp.Options, error) {
	opt := exp.Options{Parallel: s.cfg.Workers}
	q := r.URL.Query()
	var err error
	if v := q.Get("scale"); v != "" {
		if opt.Scale, err = spasm.ParseScale(v); err != nil {
			return opt, err
		}
	} else {
		opt.Scale = spasm.Small
	}
	if v := q.Get("seed"); v != "" {
		if opt.Seed, err = strconv.ParseInt(v, 10, 64); err != nil {
			return opt, fmt.Errorf("bad seed %q", v)
		}
	}
	if v := q.Get("procs"); v != "" {
		if opt.Procs, err = spasm.ParseProcs(v); err != nil {
			return opt, err
		}
	}
	if v := q.Get("machines"); v != "" {
		var kinds []machine.Kind
		for _, name := range strings.FieldsFunc(v, func(r rune) bool { return r == ',' }) {
			k, err := spasm.ParseKind(name)
			if err != nil {
				return opt, err
			}
			kinds = append(kinds, k)
		}
		opt.Machines = kinds
	}
	return opt, nil
}

// figureResult regenerates a figure through the job queue: every
// (machine, p) point is submitted as a content-addressed run job (so
// points already cached cost nothing and duplicates coalesce), then an
// exp.Session assembles the curves from the pooled results.
func (s *Server) figureResult(r *http.Request, fig exp.Figure, opt exp.Options) (*exp.FigureResult, error) {
	ctx := r.Context()
	tenant := tenantOf(r)
	opt = opt.WithDefaults()
	// Pre-submit every point so the pool works them concurrently.  The
	// submissions are releasable waiters, all released when the figure
	// request finishes: if the client disconnects (or one point errors
	// the request out) before a point runs, the server cancels it
	// instead of simulating for nobody.
	var releases []func()
	defer func() {
		for _, r := range releases {
			r()
		}
	}()
	for _, pt := range fig.Points(opt) {
		_, _, release, err := s.submitWaited(pointSpec(pt, opt), submitOpts{tenant: tenant})
		if err != nil {
			return nil, err
		}
		releases = append(releases, release)
	}
	// ...then let the session collect them in figure order.
	opt.Runner = func(pt exp.BatchPoint) (*stats.Run, error) {
		return s.runStats(ctx, pointSpec(pt, opt), tenant)
	}
	return exp.NewSession(opt).Figure(fig)
}

// pointSpec is the spec of a sweep point at the session's scale and seed.
// A figure's points vary only what a Spec can say.
func pointSpec(pt exp.BatchPoint, opt exp.Options) spasm.Spec {
	return spasm.Spec{
		App: pt.App, Scale: opt.Scale, Seed: opt.Seed,
		Machine: pt.Kind, Topology: pt.Topology, P: pt.P,
		PortMode: pt.PortMode, Protocol: pt.Protocol,
	}
}

// writeFigure writes the figure document, or the figure/sweep error.
func writeFigure(w http.ResponseWriter, fr *exp.FigureResult, err error) {
	if err != nil {
		writeError(w, err, http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, report.FigureJSON(fr))
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad figure number %q", r.PathValue("n")))
		return
	}
	fig, err := exp.ByNumber(n)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	opt, err := s.sweepOptions(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fr, err := s.figureResult(r, fig, opt)
	writeFigure(w, fr, err)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	app := q.Get("app")
	if app == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("sweep needs ?app="))
		return
	}
	topo := q.Get("topo")
	if topo == "" {
		topo = "mesh"
	}
	metricName := q.Get("metric")
	if metricName == "" {
		metricName = "exec"
	}
	metric, err := spasm.ParseMetric(metricName)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	opt, err := s.sweepOptions(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	fr, err := s.figureResult(r, exp.Figure{Num: 0, App: app, Topology: topo, Metric: metric}, opt)
	writeFigure(w, fr, err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{Status: "ok", Workers: s.cfg.Workers, QueueDepth: s.QueueDepth()}
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, s.RenderMetrics())
}
