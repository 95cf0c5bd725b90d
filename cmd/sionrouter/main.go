// Command sionrouter fronts a multifile with a cluster of serve nodes
// (internal/cluster): blocks are consistent-hashed across N in-process
// serve instances, each block owned by its ring primary, and nodes fill
// their caches from each other before touching the backend — one
// process, but the cluster data path (ring routing, peer fill, failover)
// that a multi-host deployment would use.
//
// Usage:
//
//	sionrouter [-addr :8080] [-nodes 3] [-cache-mb 64] [-block N]
//	           [-retries 4] [-vnodes 64]
//	           [-backend posix|objstore[,profile]] <multifile>
//
// Endpoints (the /rank and /ranks read surface is internal/readhttp,
// shared with sionserve):
//
//	GET  /ranks                  JSON layout summary (tasks, files, sizes)
//	GET  /rank/<r>               the rank's whole logical stream
//	GET  /rank/<r>?off=O&n=N     N bytes from logical offset O
//	GET  /rank/<r>/keys          JSON list of the rank's record keys
//	GET  /rank/<r>/key/<k>       concatenated payload of key k's records
//	GET  /stats                  JSON cluster + per-node counters
//	GET  /metrics                Prometheus text exposition: router-level
//	                             cluster_* families plus every node's
//	                             serve_* families labeled node=<id>
//	GET  /healthz                aggregated breaker state; 503 only when
//	                             every node is degraded (single nodes are
//	                             routed around, not surfaced)
//	GET  /cluster                membership
//	POST /cluster/join?id=<id>   add a serve node to the ring
//	POST /cluster/leave?id=<id>  drain a node off the ring
//
// Reads that lose every ring node answer 503 + Retry-After, mirroring
// sionserve's degraded contract.
//
// With -pprof the net/http/pprof handlers are mounted under
// /debug/pprof/. Every response echoes an X-Request-ID (adopted from the
// request or generated); requests slower than -slow-ms are logged with
// the request's breadcrumb trail (cache hits, peer fills, failovers).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/backendflag"
	"repro/internal/cluster"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/readhttp"
	"repro/internal/resil"
	"repro/internal/serve"
)

// router carries the cluster plus everything needed to admit new nodes
// at runtime (join re-uses the CLI's backend and per-node serve config).
type router struct {
	c     *cluster.Cluster
	fsys  fsio.FileSystem
	name  string
	scfg  *serve.Config
	slow  time.Duration // slow-request log threshold (0 disables)
	pprof bool          // mount /debug/pprof/
}

// logger is the process-wide structured logger: response-write failures —
// errors after the status line is committed, which can no longer become
// an HTTP error for the client — plus the middleware's slow-request
// lines. Handler tests capture records via logger.SetHook.
var logger = obs.NewLogger(os.Stderr)

const shutdownTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	nodes := flag.Int("nodes", 3, "serve nodes to start on the ring")
	cacheMB := flag.Int64("cache-mb", 64, "per-node block cache budget in MiB")
	block := flag.Int64("block", 0, "cache block size in bytes (0 = the multifile's FS block size)")
	retries := flag.Int("retries", resil.DefaultMaxAttempts,
		"max attempts per backend read under transient faults (1 disables retries)")
	vnodes := flag.Int("vnodes", 64, "virtual ring points per node")
	backend := backendflag.Flag()
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	slowMs := flag.Int64("slow-ms", 500,
		"log requests slower than this many milliseconds with their breadcrumb trail (0 disables)")
	flag.Parse()
	if flag.NArg() != 1 || *nodes < 1 {
		fmt.Fprintln(os.Stderr, "usage: sionrouter [flags] <multifile> (see -h)")
		os.Exit(2)
	}

	// One registry for the whole topology: the router's cluster_* families,
	// each node's serve_* families (labeled node=<id> at Join), and the
	// shared instrumented backend's fsio_* families (labeled backend=<kind>).
	reg := obs.NewRegistry()
	stack, err := backendflag.Build(*backend, reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sionrouter:", err)
		os.Exit(2)
	}
	rt := &router{
		c:     cluster.New(&cluster.Config{VNodes: *vnodes, Metrics: reg}),
		fsys:  stack.FS,
		name:  flag.Arg(0),
		slow:  time.Duration(*slowMs) * time.Millisecond,
		pprof: *pprofOn,
		scfg: &serve.Config{
			CacheBytes: *cacheMB << 20,
			BlockBytes: *block,
			Retry:      &resil.Budget{MaxAttempts: *retries},
		},
	}
	for i := 1; i <= *nodes; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), rt.fsys, rt.name, rt.scfg); err != nil {
			fmt.Fprintln(os.Stderr, "sionrouter:", err)
			os.Exit(1)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: rt.handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		fmt.Println("sionrouter: shutting down")
		dctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		done <- httpSrv.Shutdown(dctx)
	}()

	fmt.Printf("sionrouter: serving %s (%d ranks, %d nodes) on %s\n",
		rt.name, rt.c.Layout().NTasks(), *nodes, *addr)
	err = httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		rt.c.Close()
		fmt.Fprintln(os.Stderr, "sionrouter:", err)
		os.Exit(1)
	}
	if derr := <-done; derr != nil {
		fmt.Fprintln(os.Stderr, "sionrouter: drain:", derr)
	}
	if cerr := rt.c.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "sionrouter: close:", cerr)
	}
}

// mux wires the handler table (split out so tests drive the handlers
// through httptest without a listener): the read surface shared with
// sionserve plus the router's /stats, /metrics, /healthz and /cluster ops.
func (rt *router) mux() *http.ServeMux {
	mux := http.NewServeMux()
	readhttp.New(rt.c, nil, logger).Mount(mux)
	mux.HandleFunc("/stats", rt.handleStats)
	mux.Handle("/metrics", obs.Handler(rt.c.Metrics()))
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/cluster", rt.handleCluster)
	mux.HandleFunc("/cluster/", rt.handleClusterOp)
	if rt.pprof {
		obs.MountPprof(mux)
	}
	return mux
}

// handler is the mux behind the shared observability middleware:
// X-Request-ID assignment/echo, a per-request breadcrumb span, and the
// slow-request log.
func (rt *router) handler() http.Handler {
	return obs.HTTPMiddleware(rt.mux(), logger, rt.slow)
}

func (rt *router) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, rt.c.Stats())
}

// handleHealthz aggregates the nodes' breaker state. Unlike a single
// sionserve, one degraded node is not a degraded service — the ring
// routes around it — so the 503 fires only when the whole cluster is.
func (rt *router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	degraded := rt.c.Degraded()
	status := "ok"
	if degraded {
		status = "degraded"
		w.Header().Set("Retry-After", readhttp.RetryAfterSecs)
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, struct {
		Status string               `json:"status"`
		Nodes  []cluster.NodeHealth `json:"nodes"`
	}{Status: status, Nodes: rt.c.Health()})
}

// handleCluster summarizes membership.
func (rt *router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, struct {
		Nodes []string `json:"nodes"`
	}{Nodes: rt.c.NodeIDs()})
}

// handleClusterOp routes POST /cluster/{join,leave}.
func (rt *router) handleClusterOp(w http.ResponseWriter, r *http.Request) {
	op := strings.TrimPrefix(r.URL.Path, "/cluster/")
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "cluster operations are POSTs", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	switch op {
	case "join":
		if id == "" {
			http.Error(w, "join needs ?id=", http.StatusBadRequest)
			return
		}
		if _, err := rt.c.Join(id, rt.fsys, rt.name, rt.scfg); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	case "leave":
		if id == "" {
			http.Error(w, "leave needs ?id=", http.StatusBadRequest)
			return
		}
		if err := rt.c.Leave(id); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	default:
		http.NotFound(w, r)
		return
	}
	rt.handleCluster(w, r)
}

// writeJSON is readhttp.WriteJSON logging through this process's logger.
func writeJSON(w http.ResponseWriter, v any) { readhttp.WriteJSON(w, logger, v) }
