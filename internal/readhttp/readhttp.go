// Package readhttp is the HTTP read surface shared by the sionserve and
// sionrouter front ends: the layout summary, a rank's whole or windowed
// logical stream, and its key-value records, over any serving tier that
// opens rank handles — a single *serve.Server or a *cluster.Cluster.
//
// Endpoints mounted by (*Surface).Mount:
//
//	GET /ranks                  JSON layout summary (tasks, files, sizes)
//	GET /rank/<r>               the rank's whole logical stream
//	GET /rank/<r>?off=O&n=N     N bytes from logical offset O
//	GET /rank/<r>/keys          JSON list of the rank's record keys
//	GET /rank/<r>/key/<k>       concatenated payload of key k's records
//
// Reads that need a degraded backend answer 503 with a Retry-After hint
// (serve.ErrDegraded); other read failures are 500s.
package readhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	sion "repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Source is the serving tier behind the surface.
type Source interface {
	Open(rank int) (*serve.Handle, error)
	Layout() *sion.Layout
}

// RetryAfterSecs is the Retry-After hint sent with degraded 503s. The
// breaker cooldown is request-counted, so any client backoff that sheds
// immediate retries is appropriate; a small constant keeps well-behaved
// clients probing at a reasonable rate.
const RetryAfterSecs = "1"

// ChunkBytes bounds the buffer a stream response is read and written
// through: a rank's logical stream can be arbitrarily large, so it is
// never materialized in one allocation sized by the client's n.
const ChunkBytes int64 = 1 << 20

// Surface serves the read endpoints over one Source.
type Surface struct {
	src Source
	log *obs.Logger

	mu   sync.Mutex
	keys map[int]*sion.KeyReader // lazily built per rank, shared by clients
}

// New returns the read surface over src. keys caches each rank's key
// index across requests (nil starts an empty cache); log receives the
// failures that surface after a status line is committed.
func New(src Source, keys map[int]*sion.KeyReader, log *obs.Logger) *Surface {
	if keys == nil {
		keys = make(map[int]*sion.KeyReader)
	}
	return &Surface{src: src, log: log, keys: keys}
}

// Mount registers /ranks and /rank/ on mux.
func (s *Surface) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/ranks", s.handleRanks)
	mux.HandleFunc("/rank/", s.handleRank)
}

func (s *Surface) handleRanks(w http.ResponseWriter, _ *http.Request) {
	l := s.src.Layout()
	type rankInfo struct {
		Rank  int   `json:"rank"`
		File  int   `json:"file"`
		Bytes int64 `json:"bytes"`
	}
	out := struct {
		Name  string     `json:"name"`
		Tasks int        `json:"tasks"`
		Files int        `json:"files"`
		FSBlk int64      `json:"fs_block_size"`
		Ranks []rankInfo `json:"ranks"`
	}{Name: l.Name(), Tasks: l.NTasks(), Files: l.NumFiles(), FSBlk: l.FSBlockSize()}
	for g, loc := range l.Mapping() {
		out.Ranks = append(out.Ranks, rankInfo{Rank: g, File: int(loc.File), Bytes: l.RankSize(g)})
	}
	WriteJSON(w, s.log, out)
}

// handleRank routes /rank/<r>, /rank/<r>/keys, and /rank/<r>/key/<k>.
func (s *Surface) handleRank(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/rank/"), "/")
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		http.Error(w, "bad rank", http.StatusBadRequest)
		return
	}
	h, err := s.src.Open(rank)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	// Thread the request's span down the read path so the layers below
	// leave breadcrumbs (cache hit / backend read / peer fill / retry) on it.
	h.SetSpan(obs.SpanFrom(r.Context()))
	switch {
	case len(parts) == 1:
		s.serveBytes(w, r, h)
	case len(parts) == 2 && parts[1] == "keys":
		kr, err := s.keyReader(rank, h)
		if err != nil {
			keyReaderError(w, err)
			return
		}
		WriteJSON(w, s.log, kr.Keys())
	case len(parts) == 3 && parts[1] == "key":
		key, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			http.Error(w, "bad key", http.StatusBadRequest)
			return
		}
		kr, err := s.keyReader(rank, h)
		if err != nil {
			keyReaderError(w, err)
			return
		}
		data, err := kr.ReadKey(key)
		if err != nil {
			httpError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(data); err != nil {
			s.log.Error("writing response",
				"req", obs.SpanFrom(r.Context()).ID(), "rank", rank, "key", key, "err", err)
		}
	default:
		http.NotFound(w, r)
	}
}

// window resolves a ?off=&n= query against a stream of size bytes. A
// malformed value is a 400; a well-formed off outside [0, size] is a 416
// (range not satisfiable, mirroring HTTP range semantics); a count past
// the end is clamped to the stream's tail, and off == size is a valid
// empty window. An empty value counts as absent. It returns the window
// and http.StatusOK, or the rejecting status and its message.
func window(q url.Values, size int64) (off, n int64, status int, msg string) {
	n = size
	if v := q.Get("off"); v != "" {
		parsed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, http.StatusBadRequest, "off is not an integer"
		}
		if parsed < 0 || parsed > size {
			return 0, 0, http.StatusRequestedRangeNotSatisfiable,
				fmt.Sprintf("off %d outside the logical stream (0..%d)", parsed, size)
		}
		off, n = parsed, size-parsed
	}
	if v := q.Get("n"); v != "" {
		want, err := strconv.ParseInt(v, 10, 64)
		if err != nil || want < 0 {
			return 0, 0, http.StatusBadRequest, "n is not a byte count"
		}
		n = min(n, want)
	}
	return off, n, http.StatusOK, ""
}

// serveBytes answers /rank/<r> with the whole stream or its window.
//
// The first chunk is read before the status line is committed, so an
// immediately failing backend still maps through httpError (503 when
// degraded). Once headers are out the status can't change: mid-stream
// failures are logged and the response cut short of its Content-Length,
// which clients detect as a truncated body.
func (s *Surface) serveBytes(w http.ResponseWriter, r *http.Request, h *serve.Handle) {
	off, n, status, msg := window(r.URL.Query(), h.LogicalSize())
	if status != http.StatusOK {
		http.Error(w, msg, status)
		return
	}
	buf := make([]byte, min(n, ChunkBytes))
	if n > 0 {
		if _, err := h.ReadLogicalAt(buf, off); err != nil {
			httpError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	for sent := int64(0); sent < n; {
		m := min(n-sent, ChunkBytes)
		if sent > 0 { // the first chunk was read before the headers
			if _, err := h.ReadLogicalAt(buf[:m], off+sent); err != nil {
				s.log.Error("reading stream", "req", obs.SpanFrom(r.Context()).ID(),
					"path", r.URL.Path, "at", sent, "of", n, "err", err)
				return
			}
		}
		if _, err := w.Write(buf[:m]); err != nil {
			s.log.Error("writing response", "req", obs.SpanFrom(r.Context()).ID(),
				"path", r.URL.Path, "at", sent, "of", n, "err", err)
			return
		}
		sent += m
	}
}

// keyReader returns the rank's shared key index, building it on first use
// (the scan runs through the serving tier's cache, so later clients reuse
// its backend reads).
func (s *Surface) keyReader(rank int, h *serve.Handle) (*sion.KeyReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kr, ok := s.keys[rank]; ok {
		return kr, nil
	}
	kr, err := h.KeyReader()
	if err != nil {
		return nil, err
	}
	s.keys[rank] = kr
	return kr, nil
}

// keyReaderError distinguishes "this rank has no key records" (a client
// mistake, 400) from a degraded backend interrupting the index scan (503).
func keyReaderError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDegraded) {
		httpError(w, err)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// httpError maps a read failure to its status: a degraded backend (no
// healthy replica of the data) is 503 + Retry-After — temporary by
// construction, the circuit re-probes after its cooldown — and
// everything else stays a 500.
func httpError(w http.ResponseWriter, err error) {
	if errors.Is(err, serve.ErrDegraded) {
		w.Header().Set("Retry-After", RetryAfterSecs)
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// WriteJSON marshals before touching the ResponseWriter so an encoding
// failure can still become a 500; a failed write afterwards can only be
// logged (the 200 is already committed).
func WriteJSON(w http.ResponseWriter, log *obs.Logger, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		log.Error("encoding response", "err", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(append(data, '\n')); err != nil {
		log.Error("writing response", "err", err)
	}
}
