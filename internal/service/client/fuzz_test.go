package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"spasm/internal/service"
)

// recordStream runs one small streamed run on an in-process spasmd and
// returns the raw SSE body it served: state, epochs, result.
func recordStream(f *testing.F) []byte {
	svc := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	body := `{"app":"uniform","scale":"tiny","machine":"logp","topology":"cube","p":64}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs?stream=1", strings.NewReader(body))
	if err != nil {
		f.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		f.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		f.Fatal(err)
	}
	if !strings.Contains(string(raw), "event: result") {
		f.Fatalf("recorded stream has no result event:\n%s", raw)
	}
	return raw
}

// FuzzStream serves arbitrary bytes as a run's SSE feed, starting from a
// recorded real stream and its truncations.  RunStream must never panic or
// hang, and it returns either an error or the status carried by the
// stream's last "result" event.
func FuzzStream(f *testing.F) {
	valid := recordStream(f)
	for n := 0; n < len(valid); n += 1 + len(valid)/32 {
		f.Add(valid[:n])
	}
	f.Add(valid)
	f.Add([]byte(multiLineFeed))

	var mu sync.Mutex
	var served []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		body := served
		mu.Unlock()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Write(body)
	}))
	f.Cleanup(ts.Close)
	c := New(ts.URL)

	f.Fuzz(func(t *testing.T, data []byte) {
		mu.Lock()
		served = data
		mu.Unlock()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var last json.RawMessage
		st, err := c.RunStream(ctx, service.RunRequest{}, func(ev StreamEvent) error {
			if ev.Event == "result" {
				last = ev.Data
			}
			return nil
		})
		if ctx.Err() != nil {
			t.Fatalf("RunStream on %q did not return within 10 s", data)
		}
		if err != nil {
			return
		}
		var want service.RunStatus
		if err := json.Unmarshal(last, &want); err != nil || !reflect.DeepEqual(st, &want) {
			t.Fatalf("RunStream on %q returned %+v, the last result event is %q", data, st, last)
		}
	})
}
