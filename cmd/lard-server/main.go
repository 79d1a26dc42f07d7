// Command lard-server runs the simulation service: an HTTP JSON job API
// over the LLC simulator, backed by a content-addressed result store so a
// given (benchmark, scheme, options) run is simulated at most once.
//
// Usage:
//
//	lard-server [-addr :8347] [-store DIR] [-workers N] [-queue N]
//	            [-max-entries N]
//	            [-trace] [-log-level LEVEL] [-debug-addr ADDR]
//
// Observability:
//
//	-trace       records two views of every simulated run: its span tree
//	             (admitted -> queued -> simulating with the simulator's
//	             phase breakdown -> stored), served by
//	             GET /v1/runs/{id}/trace, and its epoch-resolved timeline
//	             (coherence counter deltas, cycle components), served by
//	             GET /v1/runs/{id}/timeline. A GET while the run is still
//	             simulating returns what was recorded so far. The server
//	             keeps the newest 4096 traces and 256 timelines, evicting
//	             finished ones first. The SSE event streams carry
//	             lifecycle and progress only.
//	-log-level   debug|info|warn|error structured logging (log/slog,
//	             stderr). Run and campaign ids ride every record.
//	-debug-addr  serves net/http/pprof on a second, private listener
//	             (e.g. localhost:6060) so profiling never shares a port
//	             with the public API.
//
// Results persist in one directory, -store DIR, one file per run at
// DIR/<key[:2]>/<key>.json; restarting on the same directory serves every
// stored run without simulating it again. An empty -store selects a
// memory-only store (results do not survive a restart). -max-entries
// bounds the store's in-memory layer with LRU eviction (0 = unbounded);
// with a store directory, evicted results stay servable from disk.
//
// See internal/server for the endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lard/internal/obs"
	"lard/internal/resultstore"
	"lard/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		storeDir   = flag.String("store", "lard-store", "result store directory (empty = memory only)")
		workers    = flag.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "pending-job queue depth (full queue answers 429)")
		maxEntries = flag.Int("max-entries", 0, "in-memory result bound, LRU-evicted beyond it (0 = unbounded)")
		trace      = flag.Bool("trace", false, "record a span tree and an epoch timeline per run, served by GET /v1/runs/{id}/trace and /timeline")
		logLevel   = flag.String("log-level", "info", "structured log level: debug, info, warn or error")
		debugAddr  = flag.String("debug-addr", "", "private listener for net/http/pprof (empty = disabled)")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	fatal(err)
	logger := obs.NewLogger(os.Stderr, level, "lard-server")

	st, err := resultstore.Open(resultstore.BackendConfig{Dir: *storeDir, MaxEntries: *maxEntries})
	fatal(err)
	ob := obs.New(obs.Options{Tracing: *trace, Log: logger})
	svc, err := server.New(server.Config{Store: st, Workers: *workers, QueueDepth: *queue, Obs: ob})
	fatal(err)
	svc.Start()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Submissions and polls are small JSON bodies; a client that cannot
		// finish its headers in 10 s is stalling a connection slot
		// (slowloris), not simulating.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if *debugAddr != "" {
		// net/http/pprof registers on the default mux; serving it on a
		// second listener keeps profiling endpoints off the public API.
		dbg := &http.Server{Addr: *debugAddr, Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}
	logger.Info("listening", "addr", *addr, "store", *storeDir, "tracing", *trace, "level", level.String())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		logger.Error("worker shutdown", "err", err)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lard-server:", err)
		os.Exit(1)
	}
}
