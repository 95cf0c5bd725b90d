package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/resil"
	"repro/internal/serve"
)

const (
	rtRanks   = 3
	rtPerRank = 5000
)

// rtPayload is the deterministic per-rank content of the test multifile.
func rtPayload(rank, size int) []byte {
	p := make([]byte, size)
	x := uint32(rank)*2654435761 + 12345
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// newTestRouter writes a small multifile, stands up a 3-node cluster over
// it, and returns the router (for membership ops) plus its handler table.
func newTestRouter(t *testing.T) (*router, *http.ServeMux) {
	t.Helper()
	fsys := fsio.NewOS(t.TempDir())
	mpi.Run(rtRanks, func(c *mpi.Comm) {
		f, err := sion.ParOpen(c, fsys, "data", sion.WriteMode, &sion.Options{ChunkSize: 2048})
		if err != nil {
			t.Errorf("rank %d: ParOpen: %v", c.Rank(), err)
			return
		}
		if _, err := f.Write(rtPayload(c.Rank(), rtPerRank)); err != nil {
			t.Errorf("rank %d: Write: %v", c.Rank(), err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("rank %d: Close: %v", c.Rank(), err)
		}
	})
	// Mirror main()'s observability wiring: one registry shared by the
	// cluster families and the backend-labeled fsio meter.
	reg := obs.NewRegistry()
	rt := &router{
		c:    cluster.New(&cluster.Config{Metrics: reg}),
		fsys: fsio.Instrument(fsys, fsio.NewMeter(reg, "os")),
		name: "data",
		scfg: &serve.Config{Retry: &resil.Budget{MaxAttempts: resil.DefaultMaxAttempts}},
	}
	for i := 1; i <= 3; i++ {
		if _, err := rt.c.Join(fmt.Sprintf("n%d", i), rt.fsys, "data", rt.scfg); err != nil {
			t.Fatalf("Join n%d: %v", i, err)
		}
	}
	t.Cleanup(func() { rt.c.Close() })
	return rt, rt.mux()
}

func get(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func post(t *testing.T, mux *http.ServeMux, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", url, nil))
	return rec
}

// TestRouterRankWindows pins the windowed-read contract over the cluster
// data path: byte identity, Content-Length, 416/400 mapping, clamping.
func TestRouterRankWindows(t *testing.T) {
	_, mux := newTestRouter(t)
	full := rtPayload(1, rtPerRank)
	cases := []struct {
		name   string
		url    string
		status int
		want   []byte // nil = don't check the body
	}{
		{"whole stream", "/rank/1", 200, full},
		{"window", "/rank/1?off=100&n=50", 200, full[100:150]},
		{"empty window at end", fmt.Sprintf("/rank/1?off=%d", rtPerRank), 200, []byte{}},
		{"count clamped", fmt.Sprintf("/rank/1?off=%d&n=9999", rtPerRank-3), 200, full[rtPerRank-3:]},
		{"off past end", fmt.Sprintf("/rank/1?off=%d", rtPerRank+1), 416, nil},
		{"negative off", "/rank/1?off=-1", 416, nil},
		{"non-integer off", "/rank/1?off=abc", 400, nil},
		{"negative n", "/rank/1?n=-1", 400, nil},
		{"unknown rank", "/rank/99", 404, nil},
		{"non-integer rank", "/rank/zzz", 400, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := get(t, mux, tc.url)
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d (body %q)", tc.url, rec.Code, tc.status, rec.Body.String())
			}
			if tc.want == nil {
				return
			}
			if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(tc.want)) {
				t.Errorf("%s: Content-Length %q, want %d", tc.url, cl, len(tc.want))
			}
			if !bytes.Equal(rec.Body.Bytes(), tc.want) {
				t.Errorf("%s: body mismatch (%d bytes, want %d)", tc.url, rec.Body.Len(), len(tc.want))
			}
		})
	}
}

// TestRouterClusterOps drives the membership endpoints: join grows the
// ring, duplicate joins conflict, leave shrinks it, unknown leaves 404,
// non-POSTs 405, and reads stay byte-identical across the churn.
func TestRouterClusterOps(t *testing.T) {
	_, mux := newTestRouter(t)
	full := rtPayload(2, rtPerRank)

	members := func(rec *httptest.ResponseRecorder) []string {
		t.Helper()
		var out struct {
			Nodes []string `json:"nodes"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("membership body %q: %v", rec.Body.String(), err)
		}
		return out.Nodes
	}
	if got := members(get(t, mux, "/cluster")); len(got) != 3 {
		t.Fatalf("initial membership %v, want 3 nodes", got)
	}

	if rec := post(t, mux, "/cluster/join?id=n4"); rec.Code != 200 {
		t.Fatalf("join: status %d (%s)", rec.Code, rec.Body.String())
	} else if got := members(rec); len(got) != 4 {
		t.Fatalf("post-join membership %v, want 4 nodes", got)
	}
	if rec := post(t, mux, "/cluster/join?id=n4"); rec.Code != http.StatusConflict {
		t.Errorf("duplicate join: status %d, want 409", rec.Code)
	}
	if rec := get(t, mux, "/rank/2"); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
		t.Errorf("read after join: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	if rec := post(t, mux, "/cluster/leave?id=n4"); rec.Code != 200 {
		t.Fatalf("leave: status %d (%s)", rec.Code, rec.Body.String())
	} else if got := members(rec); len(got) != 3 {
		t.Fatalf("post-leave membership %v, want 3 nodes", got)
	}
	if rec := post(t, mux, "/cluster/leave?id=ghost"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown leave: status %d, want 404", rec.Code)
	}
	if rec := get(t, mux, "/rank/2"); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), full) {
		t.Errorf("read after leave: status %d, %d bytes", rec.Code, rec.Body.Len())
	}

	if rec := post(t, mux, "/cluster/join"); rec.Code != http.StatusBadRequest {
		t.Errorf("join without id: status %d, want 400", rec.Code)
	}
	if rec := get(t, mux, "/cluster/join?id=n5"); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET join: status %d, want 405", rec.Code)
	}
	if rec := post(t, mux, "/cluster/frobnicate"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown op: status %d, want 404", rec.Code)
	}
}

// TestRouterHealthzAndStats pins the read-only JSON surfaces: a healthy
// cluster is 200/"ok" with one entry per node, and /stats carries the
// cluster counters (every rank read once → requests counted, no
// failovers, no replica exhaustion).
func TestRouterHealthzAndStats(t *testing.T) {
	_, mux := newTestRouter(t)
	for r := 0; r < rtRanks; r++ {
		if rec := get(t, mux, fmt.Sprintf("/rank/%d", r)); rec.Code != 200 {
			t.Fatalf("rank %d: status %d", r, rec.Code)
		}
	}

	rec := get(t, mux, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("/healthz: status %d", rec.Code)
	}
	var hz struct {
		Status string               `json:"status"`
		Nodes  []cluster.NodeHealth `json:"nodes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatalf("/healthz body: %v", err)
	}
	if hz.Status != "ok" || len(hz.Nodes) != 3 {
		t.Errorf("/healthz = %q with %d nodes, want ok/3", hz.Status, len(hz.Nodes))
	}

	rec = get(t, mux, "/stats")
	if rec.Code != 200 {
		t.Fatalf("/stats: status %d", rec.Code)
	}
	var st cluster.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("/stats body: %v", err)
	}
	if st.Nodes != 3 || st.Requests == 0 {
		t.Errorf("stats nodes=%d requests=%d, want 3 nodes and nonzero requests", st.Nodes, st.Requests)
	}
	if st.Failovers != 0 || st.AllReplicasDown != 0 {
		t.Errorf("healthy cluster shows failovers=%d allDown=%d", st.Failovers, st.AllReplicasDown)
	}

	if rec := get(t, mux, "/ranks"); rec.Code != 200 {
		t.Errorf("/ranks: status %d", rec.Code)
	}
}
