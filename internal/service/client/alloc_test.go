//go:build !race

// The race detector's instrumentation allocates, so this budget only
// builds without it.

package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"spasm/internal/service"
)

// cannedFeed is a run's SSE body with n events: a state event, n-2
// epochs and the result.
func cannedFeed(n int) []byte {
	var b strings.Builder
	b.WriteString("event: state\ndata: {\"id\":\"abc\",\"state\":\"running\"}\n\n")
	for i := 0; i < n-2; i++ {
		fmt.Fprintf(&b, "event: epoch\ndata: {\"index\":%d,\"epoch_len_us\":10,\"start_us\":%d,"+
			"\"buckets_us\":[1.5,2.25,0.5,0.125,3],\"misses\":%d,\"messages\":%d,\"link_busy_us\":4.5}\n\n", i, 10*i, i, 2*i)
	}
	b.WriteString("event: result\ndata: {\"id\":\"abc\",\"state\":\"done\",\"result\":{\"total_us\":12.5}}\n\n")
	return []byte(b.String())
}

// roundTrip serves one canned body to every request.
type roundTrip []byte

func (body roundTrip) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {"text/event-stream"}},
		Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
}

// TestRunStreamAllocsPerStream: RunStream parses every event in place,
// so what a stream allocates does not grow with its event count.  A
// 200-event feed may allocate at most two more objects than a 2-event one
// (the event-by-event parse cost two an event: the Data slice and the
// name).
func TestRunStreamAllocsPerStream(t *testing.T) {
	allocs := func(n int) float64 {
		c := New("http://spasmd.test")
		c.HTTPClient = &http.Client{Transport: roundTrip(cannedFeed(n))}
		events := 0
		a := testing.AllocsPerRun(20, func() {
			st, err := c.RunStream(context.Background(), service.RunRequest{}, func(StreamEvent) error {
				events++
				return nil
			})
			if err != nil || st.State != service.StateDone {
				t.Fatalf("%d-event feed: status %+v, err %v", n, st, err)
			}
		})
		if want := 21 * n; events != want {
			t.Fatalf("%d-event feed delivered %d events over 21 streams, want %d", n, events, want)
		}
		return a
	}
	few, many := allocs(2), allocs(200)
	t.Logf("a 2-event stream allocates %v objects, a 200-event one %v", few, many)
	if many > few+2 {
		t.Errorf("a 200-event stream allocates %v objects against %v for 2 events: the parse allocates per event", many, few)
	}
}
