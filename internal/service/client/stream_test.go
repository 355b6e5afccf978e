package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spasm/internal/service"
)

// multiLineFeed carries its result event over two data lines, which an
// SSE parser joins with a newline.
const multiLineFeed = "event: epoch\ndata:  x\n\nevent: result\ndata: {\"id\":\"abc\",\ndata: \"state\":\"done\"}\n\n"

// TestStreamDataLines checks the SSE field rules RunStream follows: data
// lines join with "\n", and only the one space after the colon goes.
func TestStreamDataLines(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write([]byte(multiLineFeed))
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	var got []StreamEvent
	st, err := New(ts.URL).RunStream(ctx, service.RunRequest{}, func(ev StreamEvent) error {
		got = append(got, ev)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d events, want 2: %q", len(got), got)
	}
	if d := string(got[0].Data); d != " x" {
		t.Errorf("data:  x (two spaces) gave %q, want %q", d, " x")
	}
	if d, want := string(got[1].Data), "{\"id\":\"abc\",\n\"state\":\"done\"}"; d != want {
		t.Errorf("two data lines gave %q, want %q", d, want)
	}
	if st.ID != "abc" || st.State != service.StateDone {
		t.Errorf("final status %+v, want run abc done", st)
	}
}
