// Command sionserve exposes a multifile over HTTP through the read-serving
// subsystem (internal/serve): one process fronts the multifile for any
// number of remote clients, with a sharded block cache and coalesced
// backend reads between them and the file system.
//
// Usage:
//
//	sionserve [-addr :8080] [-cache-mb 64] [-block N] [-retries 4] <multifile>
//
// Endpoints (the /rank and /ranks read surface is internal/readhttp,
// shared with sionrouter):
//
//	GET /ranks                  JSON layout summary (tasks, files, sizes)
//	GET /rank/<r>               the rank's whole logical stream
//	GET /rank/<r>?off=O&n=N     N bytes from logical offset O
//	GET /rank/<r>/keys          JSON list of the rank's record keys
//	GET /rank/<r>/key/<k>       concatenated payload of key k's records
//	GET /stats                  JSON cache/backend counters
//	GET /metrics                Prometheus text exposition of every
//	                            instrument (serve_*, fsio_*)
//	GET /healthz                per-physical-file circuit-breaker state;
//	                            200 when all circuits are closed, 503 when
//	                            any physical file is degraded
//
// With -pprof the net/http/pprof handlers are mounted under
// /debug/pprof/. Every response echoes an X-Request-ID (adopted from the
// request or generated); requests slower than -slow-ms are logged with
// the request's breadcrumb trail (cache hits, backend reads, retries).
//
// Resilience: backend span reads retry transient faults under a bounded
// backoff budget (-retries), and each physical file sits behind a circuit
// breaker. While a circuit is open, reads that the cache can satisfy keep
// succeeding; reads that would need the degraded backend answer
// 503 Service Unavailable with a Retry-After hint.
//
// On SIGINT/SIGTERM the process stops accepting connections, drains
// in-flight requests (bounded by a deadline), then closes the serve layer
// and exits.
//
// The multifile must be complete (written and closed); serving a file
// still being written is out of scope for the cache's consistency model.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backendflag"
	sion "repro/internal/core"
	"repro/internal/obs"
	"repro/internal/readhttp"
	"repro/internal/resil"
	"repro/internal/serve"
)

type server struct {
	srv   *serve.Server
	slow  time.Duration // slow-request log threshold (0 disables)
	pprof bool          // mount /debug/pprof/

	// keys caches each rank's key index for the read surface (one
	// readhttp.Surface per server: mux is built once).
	keys map[int]*sion.KeyReader
}

// logger is the process-wide structured logger. It mostly reports
// response-write failures — errors that surface after the status line is
// committed, so they can no longer turn into an HTTP error for the
// client — plus the middleware's slow-request lines. Handler tests
// capture records via logger.SetHook.
var logger = obs.NewLogger(os.Stderr)

// shutdownTimeout bounds the in-flight request drain on SIGINT/SIGTERM.
const shutdownTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheMB := flag.Int64("cache-mb", 64, "block cache budget in MiB")
	block := flag.Int64("block", 0, "cache block size in bytes (0 = the multifile's FS block size)")
	retries := flag.Int("retries", resil.DefaultMaxAttempts,
		"max attempts per backend read under transient faults (1 disables retries)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowMs := flag.Int64("slow-ms", 500,
		"log requests slower than this many milliseconds with their breadcrumb trail (0 disables)")
	backend := backendflag.Flag()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: sionserve [-addr :8080] [-cache-mb 64] [-block N] [-retries 4] [-backend posix|objstore[,profile]] <multifile>")
		os.Exit(2)
	}
	// One registry carries the whole process: the serve layer's families
	// plus the instrumented backend's fsio_* families (labeled with the
	// backend name), so /metrics shows cache behavior next to the raw I/O
	// it turns into.
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(*backend, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(2)
	}
	srv, err := serve.New(stack.FS, flag.Arg(0), &serve.Config{
		CacheBytes: *cacheMB << 20,
		BlockBytes: *block,
		Retry:      &resil.Budget{MaxAttempts: *retries},
		Metrics:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}
	s := &server{
		srv:   srv,
		slow:  time.Duration(*slowMs) * time.Millisecond,
		pprof: *pprofOn,
		keys:  make(map[int]*sion.KeyReader),
	}
	httpSrv := &http.Server{Addr: *addr, Handler: s.handler()}

	// Graceful shutdown: stop accepting, drain in-flight requests under a
	// deadline, then release the serve layer (fetchers + file handles).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Println("sionserve: shutting down")
		dctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(dctx)
	}()

	fmt.Printf("sionserve: serving %s (%d ranks, %d physical files) on %s\n",
		flag.Arg(0), srv.Layout().NTasks(), srv.Layout().NumFiles(), *addr)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		srv.Close()
		fmt.Fprintln(os.Stderr, "sionserve:", err)
		os.Exit(1)
	}
	if derr := <-done; derr != nil {
		fmt.Fprintln(os.Stderr, "sionserve: drain:", derr)
	}
	if cerr := srv.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "sionserve: close:", cerr)
	}
}

// mux wires the handler table (split out so tests drive the handlers
// through httptest without a listener): the shared read surface plus this
// front end's /stats, /metrics and /healthz.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	readhttp.New(s.srv, s.keys, logger).Mount(mux)
	mux.HandleFunc("/stats", s.handleStats)
	mux.Handle("/metrics", obs.Handler(s.srv.Metrics()))
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.pprof {
		obs.MountPprof(mux)
	}
	return mux
}

// handler is the mux behind the shared observability middleware:
// X-Request-ID assignment/echo, a per-request breadcrumb span, and the
// slow-request log.
func (s *server) handler() http.Handler {
	return obs.HTTPMiddleware(s.mux(), logger, s.slow)
}

// handleHealthz reports per-physical-file breaker state: 200 with all
// circuits closed, 503 while any file is degraded (load balancers can key
// readiness off the status code alone).
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	health := s.srv.Health()
	degraded := s.srv.Degraded()
	status := "ok"
	if degraded {
		status = "degraded"
		w.Header().Set("Retry-After", readhttp.RetryAfterSecs)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, struct {
		Status string             `json:"status"`
		Files  []serve.FileHealth `json:"files"`
	}{Status: status, Files: health})
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.srv.Stats())
}

// writeJSON is readhttp.WriteJSON logging through this process's logger.
func writeJSON(w http.ResponseWriter, v any) { readhttp.WriteJSON(w, logger, v) }
