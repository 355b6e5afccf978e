package service_test

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"spasm/internal/service"
	"spasm/internal/service/client"
)

// ssePins are the SHA-256 of the SSE feed a streamed run of each cold
// shape delivers after the subscriber's opening state event (which says
// pending or running, depending on when the worker picks the job up):
// the worker's running state, every live epoch and the result, each as
// "event\ndata\n".  Any change to how the hub logs or renders events
// must reproduce them byte for byte.
var ssePins = []struct {
	req  service.RunRequest
	feed string
}{
	{service.RunRequest{App: "fft", Scale: "small", Machine: "target", Topology: "mesh", P: 16},
		"dd17fc437e7bf86ed3896ee19977d6621e9408cb03b8c2bca431357c858442f7"},
	{service.RunRequest{App: "cg", Scale: "small", Machine: "clogp", Topology: "cube", P: 16},
		"58bd6ddcbea5ca574a17bf84f092cdcf234bed073f27da1462c2b8e347481331"},
	{service.RunRequest{App: "is", Scale: "small", Machine: "logp", Topology: "full", P: 16},
		"ea16b3aadeadd7c11dbfbcb8fb27dc775dea5ee2639b941ddf79b51a336d5a43"},
	{service.RunRequest{App: "uniform", Scale: "tiny", Machine: "flow", Topology: "torus", P: 64},
		"27b3c82951775406e1051a074f215c6edc054970850ef3eb60c63f6aaa099ac2"},
}

// TestStreamDataLinesPinned streams each cold shape through the HTTP
// surface and compares its feed with the pinned hash.
func TestStreamDataLinesPinned(t *testing.T) {
	_, c := newTestService(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, pin := range ssePins {
		r := pin.req
		t.Run(fmt.Sprintf("%s/%s/%s/p%d", r.App, r.Machine, r.Topology, r.P), func(t *testing.T) {
			h := sha256.New()
			n, epochs := 0, 0
			final, err := c.RunStream(ctx, r, func(ev client.StreamEvent) error {
				if n++; n > 1 {
					fmt.Fprintf(h, "%s\n%s\n", ev.Event, ev.Data)
				}
				if ev.Event == "epoch" {
					epochs++
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if final.State != service.StateDone || epochs < 2 {
				t.Fatalf("stream ended %s after %d epoch events", final.State, epochs)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)); got != pin.feed {
				t.Errorf("feed of %d events (%d epochs) hashes to %s, pinned %s", n-1, epochs, got, pin.feed)
			}
		})
	}
}
