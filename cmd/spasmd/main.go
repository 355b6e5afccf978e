// Command spasmd serves the simulator as a long-lived HTTP service: a
// job queue and worker pool execute runs through the spasm façade, and a
// content-addressed result cache makes repeated identical requests
// near-free (runs are deterministic functions of their spec).
//
// Usage:
//
//	spasmd                       # listen on :8347, GOMAXPROCS workers
//	spasmd -addr :9000 -workers 8 -cache 1024
//	spasmd -store /var/lib/spasmd  # durable result store: restarts stay warm
//
// Quick start:
//
//	curl -s localhost:8347/healthz
//	curl -s -X POST localhost:8347/v1/runs \
//	    -d '{"app":"fft","scale":"tiny","machine":"target","topology":"mesh","p":16}'
//	curl -s localhost:8347/v1/runs/<id>     # poll: pending -> running -> done
//	curl -s 'localhost:8347/v1/figures/7?scale=tiny&procs=2,4,8'
//	curl -s localhost:8347/metrics
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener stops, and
// every accepted simulation drains before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"spasm/internal/service"
	"spasm/internal/service/store"
)

func main() {
	var (
		addr        = flag.String("addr", ":8347", "listen address")
		workers     = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cacheSize   = flag.Int("cache", 512, "result-cache capacity, in runs")
		queue       = flag.Int("queue", 1024, "pending-job queue depth")
		drain       = flag.Duration("drain", 10*time.Minute, "graceful-shutdown drain timeout")
		runTimeout  = flag.Duration("run-timeout", 0, "per-job wall-clock simulation deadline (0 = unbounded)")
		storeDir    = flag.String("store", "", "durable result-store directory (empty = memory-only)")
		maxBody     = flag.Int64("max-body", 1<<20, "request-body size cap, in bytes")
		tenantRuns  = flag.Int("tenant-runs", 0, "per-tenant outstanding-run quota (0 = unlimited)")
		tenantBytes = flag.Int64("tenant-bytes", 0, "per-tenant queued-body-bytes quota (0 = unlimited)")
	)
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatalf("spasmd: -store: %v", err)
		}
		log.Printf("spasmd: durable store at %s (%d runs warm)", st.Dir(), st.Stats().Entries)
	}

	svc := service.New(service.Config{
		Workers: *workers, CacheSize: *cacheSize, QueueDepth: *queue,
		RunTimeout: *runTimeout, Store: st, MaxBodyBytes: *maxBody,
		TenantQuotaRuns: *tenantRuns, TenantQuotaBytes: *tenantBytes,
	})
	hs := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		w := *workers
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		log.Printf("spasmd: listening on %s (%d workers, cache %d runs)", *addr, w, *cacheSize)
		errCh <- hs.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		log.Fatalf("spasmd: %v", err)
	case <-ctx.Done():
	}

	log.Printf("spasmd: shutting down, draining in-flight simulations...")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("spasmd: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		log.Fatalf("spasmd: drain: %v", err)
	}
	log.Printf("spasmd: drained, bye")
}
