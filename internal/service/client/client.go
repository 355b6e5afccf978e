// Package client is a small Go client for the spasmd HTTP API
// (internal/service).  It submits runs, polls or streams them to
// completion, fetches figures, and reads the metrics page — the surface
// examples/service_client and the benchmark exercise.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"spasm/internal/report"
	"spasm/internal/service"
)

// RetryPolicy bounds the client's transparent retries.  Retries are
// safe for every spasmd endpoint: the API is content-addressed and
// idempotent (resubmitting a spec coalesces or hits the cache), so a
// request that failed in transit can always be replayed.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (default 4;
	// 1 disables retrying).
	MaxAttempts int
}

// The retry backoff: baseDelay before the first retry, doubling after,
// with up to 50% random jitter so a thundering herd of clients
// decorrelates; maxDelay caps each step, server Retry-After hints
// included.
const (
	baseDelay = 50 * time.Millisecond
	maxDelay  = 2 * time.Second
)

// Run's polling: the pause between status polls, and how many
// consecutive transient GetRun failures it tolerates before giving up.
// Each poll already retries per the RetryPolicy, so the tolerance guards
// against outages longer than one request's backoff budget.
const (
	pollInterval    = 25 * time.Millisecond
	maxPollFailures = 3
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	return p
}

// delay computes the backoff before retry number attempt (0-based),
// honoring the server's Retry-After hint when one came back.
func delay(attempt int, hint time.Duration) time.Duration {
	d := baseDelay << attempt
	if hint > 0 {
		d = hint
	}
	if d > maxDelay {
		d = maxDelay
	}
	// Up to 50% additive jitter; never below the base so a hinted delay
	// stays at least as long as asked.
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Client talks to one spasmd instance.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry bounds the transparent retrying of transient failures —
	// transport errors and HTTP 503 back-pressure.  The zero value
	// retries with the defaults; set MaxAttempts to 1 to disable.
	Retry RetryPolicy
	// Tenant, when set, is sent as the X-Spasm-Tenant header on every
	// request, naming the fair-share bucket submissions queue under.
	Tenant string
}

// New returns a client for the server at base.
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// apiError is the decoded {"error": ...} body of a failed request.
type apiError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration // parsed Retry-After hint, 0 if absent
}

func (e *apiError) Error() string {
	return fmt.Sprintf("spasmd: HTTP %d: %s", e.Status, e.Msg)
}

// transient reports whether err is worth retrying: a transport-level
// failure (connection refused/reset, broken pipe) or the server's own
// 503 back-pressure.  Context expiry and hard API errors (4xx) are
// final.
func transient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *apiError
	if errors.As(err, &ae) {
		// 503 is service back-pressure; 429 is this tenant's own quota.
		// Both come with Retry-After and clear on their own.
		return ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusTooManyRequests
	}
	return true // transport error
}

// retryAfterHint extracts the server's Retry-After suggestion, if any.
func retryAfterHint(err error) time.Duration {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.RetryAfter
	}
	return 0
}

// doRaw issues one request per attempt — the body is pre-marshaled so
// every attempt replays identical bytes — retrying transient failures
// per the client's RetryPolicy with context-bounded sleeps.  It returns
// the raw response body; non-2xx responses become *apiError values.
func (c *Client) doRaw(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	policy := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			t := time.NewTimer(delay(attempt-1, retryAfterHint(lastErr)))
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
		}
		data, err := c.doOnce(ctx, method, path, body)
		if err == nil {
			return data, nil
		}
		lastErr = err
		if !transient(err) {
			return nil, err
		}
	}
	return nil, lastErr
}

func (c *Client) doOnce(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.Tenant != "" {
		req.Header.Set("X-Spasm-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		ae := &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
		var ed struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			ae.Msg = ed.Error
		}
		ae.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return nil, ae
	}
	return data, nil
}

// parseRetryAfter parses a Retry-After header in either RFC 9110 form:
// delay-seconds or an HTTP-date.  Garbage, negative delays, and dates
// already in the past yield 0, which the retry policy treats as "no
// hint" and falls back to its own backoff — a malformed or hostile
// header can neither stall the client nor make it hammer the server.
func parseRetryAfter(h string, now time.Time) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// do issues a request (with retries) and decodes the JSON response into
// out (unless out is nil).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var b []byte
	if body != nil {
		var err error
		if b, err = json.Marshal(body); err != nil {
			return err
		}
	}
	data, err := c.doRaw(ctx, method, path, b)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// SubmitRun submits a run without waiting for it.
func (c *Client) SubmitRun(ctx context.Context, req service.RunRequest) (*service.RunStatus, error) {
	var st service.RunStatus
	if err := c.do(ctx, http.MethodPost, "/v1/runs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// GetRun polls a run by ID.
func (c *Client) GetRun(ctx context.Context, id string) (*service.RunStatus, error) {
	var st service.RunStatus
	if err := c.do(ctx, http.MethodGet, "/v1/runs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Run submits a run and polls until it reaches a terminal state — done,
// failed, or canceled — or ctx ends.  A transient poll failure (server
// briefly unreachable, 503 back-pressure past the per-request retry
// budget) does not abandon the run: up to maxPollFailures consecutive
// failed polls are tolerated before the last error is returned, and any
// successful poll resets the count.  The job keeps running server-side
// either way — a poll-based client that returns early can always poll
// again by ID.
func (c *Client) Run(ctx context.Context, req service.RunRequest) (*service.RunStatus, error) {
	st, err := c.SubmitRun(ctx, req)
	if err != nil {
		return nil, err
	}
	id, failures := st.ID, 0
	for !terminal(st.State) {
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(pollInterval):
		}
		next, err := c.GetRun(ctx, id)
		if err != nil {
			if !transient(err) {
				return nil, err
			}
			if failures++; failures >= maxPollFailures {
				return nil, fmt.Errorf("client: %d consecutive poll failures for run %s: %w", failures, id, err)
			}
			continue
		}
		st, failures = next, 0
	}
	return st, nil
}

func terminal(s service.State) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCanceled
}

// StreamEvent is one event from a run's SSE feed: Event is "state",
// "epoch", or "result"; Data is the event's JSON payload.  "epoch"
// events are provisional live telemetry (a profile rescale re-emits the
// covered timeline at a coarser resolution); the "result" event carries
// the terminal RunStatus.
//
// Data is valid only until the onEvent call that receives it returns:
// RunStream parses every event of a stream into one buffer, the contract
// bufio.Scanner.Bytes has.  A caller that keeps the payload copies it.
type StreamEvent struct {
	Event string
	Data  json.RawMessage
}

// RunStream submits a run and follows it live: the server executes the
// run instrumented and streams profile epochs as they close, and
// onEvent (when non-nil) observes every event in order.  A non-nil
// error from onEvent abandons the stream and is returned; the server
// then cancels the job if nobody else wants it.  The returned status is
// the terminal "result" event.  Unlike Run, a stream is not replayable
// mid-flight, so there are no transparent retries — but resubmitting is
// always safe (the run coalesces or hits the cache).
func (c *Client) RunStream(ctx context.Context, req service.RunRequest, onEvent func(StreamEvent) error) (*service.RunStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/runs?stream=1", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	if c.Tenant != "" {
		hreq.Header.Set("X-Spasm-Tenant", c.Tenant)
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		ae := &apiError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
		var ed struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &ed) == nil && ed.Error != "" {
			ae.Msg = ed.Error
		}
		ae.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		return nil, ae
	}

	var final *service.RunStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4<<10), 16<<20)
	var ev StreamEvent
	data := make([]byte, 0, 1<<10) // every event's Data, in turn
	flush := func() error {
		if ev.Event == "" && ev.Data == nil {
			return nil
		}
		if ev.Event == "result" {
			// A result that does not decode ends the stream: the status
			// returned is always the last result event's, never an earlier one.
			final = &service.RunStatus{}
			if err := json.Unmarshal(ev.Data, final); err != nil {
				final = nil
				return fmt.Errorf("client: malformed result event: %w", err)
			}
		}
		var cbErr error
		if onEvent != nil {
			cbErr = onEvent(ev)
		}
		ev = StreamEvent{}
		return cbErr
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			if err := flush(); err != nil {
				return final, err
			}
			continue
		}
		// "field: value", the value losing one leading space; a line
		// opening with a colon is a keep-alive comment (empty field).
		field, value, _ := bytes.Cut(line, []byte(":"))
		value, _ = bytes.CutPrefix(value, []byte(" "))
		switch string(field) {
		case "event":
			ev.Event = eventName(value)
		case "data":
			// Data lines join with newlines.
			if ev.Data == nil {
				data = data[:0]
			} else {
				data = append(data, '\n')
			}
			data = append(data, value...)
			ev.Data = data
		}
	}
	if err := flush(); err != nil {
		return final, err
	}
	if err := sc.Err(); err != nil {
		return final, err
	}
	if final == nil {
		return nil, errors.New("client: stream ended without a result event")
	}
	return final, nil
}

// eventName returns an SSE event field's value as a string, without
// allocating for the names the server sends.
func eventName(b []byte) string {
	for _, name := range [...]string{"state", "epoch", "result"} {
		if string(b) == name {
			return name
		}
	}
	return string(b)
}

// DecodeResult unpacks a completed run's statistics document.
func DecodeResult(st *service.RunStatus) (*report.RunDoc, error) {
	if st.State != service.StateDone {
		return nil, fmt.Errorf("client: run %s is %s (%s)", st.ID, st.State, st.Error)
	}
	var doc report.RunDoc
	if err := json.Unmarshal(st.Result, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// SweepOpts narrows a figure request; zero values mean the
// server's defaults (scale small, procs 2..64).
type SweepOpts struct {
	Procs []int
	Scale string
}

func (o SweepOpts) query() url.Values {
	q := url.Values{}
	if len(o.Procs) > 0 {
		strs := make([]string, len(o.Procs))
		for i, p := range o.Procs {
			strs[i] = strconv.Itoa(p)
		}
		q.Set("procs", strings.Join(strs, ","))
	}
	if o.Scale != "" {
		q.Set("scale", o.Scale)
	}
	return q
}

// Figure regenerates paper figure n on the server.
func (c *Client) Figure(ctx context.Context, n int, opts SweepOpts) (*report.FigureDoc, error) {
	q := opts.query()
	path := fmt.Sprintf("/v1/figures/%d", n)
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var doc report.FigureDoc
	if err := c.do(ctx, http.MethodGet, path, nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Healthz checks server liveness.
func (c *Client) Healthz(ctx context.Context) (*service.Health, error) {
	var h service.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Metrics fetches the raw metrics page.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	data, err := c.doRaw(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	return string(data), nil
}

// MetricValue extracts an un-labelled counter or gauge from a metrics
// page, e.g. MetricValue(page, "spasmd_cache_hits_total").
func MetricValue(page, name string) (float64, bool) {
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	return 0, false
}
