package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsio"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 21

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer is a valid disabled tracer: every method is a no-op.
type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	cur     atomic.Int64 // parent for spans opened where the caller is not visible (fsio calls)
	req     atomic.Int64 // request ID those spans inherit
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; pass the result to end.
func (t *tracer) begin(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{Name: name, ID: t.nextID.Add(1), Parent: parent, Req: req, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// enter makes s the parent of spans opened below the benchmark's view
// (the fsio decorator) until the returned function restores the previous
// one. It is meant for sequential replays; concurrent phases set the
// phase span instead.
func (t *tracer) enter(s span) func() {
	if t == nil {
		return func() {}
	}
	prevCur, prevReq := t.cur.Swap(s.ID), t.req.Swap(s.Req)
	return func() { t.cur.Store(prevCur); t.req.Store(prevReq) }
}

// selfTimes returns, per span name, the summed span time minus the part
// of each span's interval covered by its children.
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(children[s.ID], s.Start, s.End))
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeFile writes the run stamp, the self-time summary and every span as
// JSON lines.
func (t *tracer) writeFile(path string, stamp any) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	selfS := make(map[string]float64, len(self))
	for k, v := range self {
		selfS[k] = v.Seconds()
	}
	t.mu.Lock()
	_ = enc.Encode(map[string]any{"stamp": stamp, "self_s": selfS, "spans": len(t.spans), "dropped": t.dropped})
	for _, s := range t.spans {
		_ = enc.Encode(s)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ioCounters are the fsio decorator's per-class counts and busy time.
type ioCounters struct {
	readOps, readBytes, readNs    atomic.Int64
	writeOps, writeBytes, writeNs atomic.Int64
	syncOps, syncNs               atomic.Int64
}

// ioSnap is a plain copy of ioCounters.
type ioSnap struct {
	ReadOps, ReadBytes, ReadNs    int64
	WriteOps, WriteBytes, WriteNs int64
	SyncOps, SyncNs               int64
}

func (c *ioCounters) snap() ioSnap {
	return ioSnap{
		c.readOps.Load(), c.readBytes.Load(), c.readNs.Load(),
		c.writeOps.Load(), c.writeBytes.Load(), c.writeNs.Load(),
		c.syncOps.Load(), c.syncNs.Load(),
	}
}

func (a ioSnap) sub(b ioSnap) ioSnap {
	return ioSnap{
		a.ReadOps - b.ReadOps, a.ReadBytes - b.ReadBytes, a.ReadNs - b.ReadNs,
		a.WriteOps - b.WriteOps, a.WriteBytes - b.WriteBytes, a.WriteNs - b.WriteNs,
		a.SyncOps - b.SyncOps, a.SyncNs - b.SyncNs,
	}
}

// traceFS is a pass-through fsio.FileSystem that records a span and
// counts for every positional read, write and sync. It implements
// fsio.Unwrapper, so capabilities and every other optional interface of
// the backend below are seen through it unchanged.
type traceFS struct {
	inner fsio.FileSystem
	t     *tracer
	io    ioCounters
}

func newTraceFS(inner fsio.FileSystem, t *tracer) *traceFS {
	return &traceFS{inner: inner, t: t}
}

func (f *traceFS) wrap(fh fsio.File, err error) (fsio.File, error) {
	if err != nil {
		return nil, err
	}
	return &traceFile{File: fh, fs: f}, nil
}

func (f *traceFS) Create(name string) (fsio.File, error) { return f.wrap(f.inner.Create(name)) }
func (f *traceFS) Open(name string) (fsio.File, error)   { return f.wrap(f.inner.Open(name)) }
func (f *traceFS) OpenRW(name string) (fsio.File, error) { return f.wrap(f.inner.OpenRW(name)) }
func (f *traceFS) Stat(name string) (fsio.FileInfo, error) {
	return f.inner.Stat(name)
}
func (f *traceFS) Remove(name string) error    { return f.inner.Remove(name) }
func (f *traceFS) BlockSize(name string) int64 { return f.inner.BlockSize(name) }
func (f *traceFS) Unwrap() fsio.FileSystem     { return f.inner }
func (f *traceFS) begin(name string) (span, int64) {
	if f.t == nil {
		return span{}, nowNs()
	}
	return f.t.begin(name, f.t.cur.Load(), f.t.req.Load()), nowNs()
}

// traceFile embeds the backend's handle; only the timed calls are
// overridden.
type traceFile struct {
	fsio.File
	fs *traceFS
}

func (h *traceFile) ReadAt(p []byte, off int64) (int, error) {
	s, t := h.fs.begin("fsio.pread")
	n, err := h.File.ReadAt(p, off)
	h.fs.io.readNs.Add(nowNs() - t)
	h.fs.t.end(s)
	h.fs.io.readOps.Add(1)
	h.fs.io.readBytes.Add(int64(n))
	return n, err
}

func (h *traceFile) WriteAt(p []byte, off int64) (int, error) {
	s, t := h.fs.begin("fsio.pwrite")
	n, err := h.File.WriteAt(p, off)
	h.fs.io.writeNs.Add(nowNs() - t)
	h.fs.t.end(s)
	h.fs.io.writeOps.Add(1)
	h.fs.io.writeBytes.Add(int64(n))
	return n, err
}

func (h *traceFile) Sync() error {
	s, t := h.fs.begin("fsio.fsync")
	err := h.File.Sync()
	h.fs.io.syncNs.Add(nowNs() - t)
	h.fs.t.end(s)
	h.fs.io.syncOps.Add(1)
	return err
}

var clockBase = time.Now()

// nowNs is a monotonic clock reading in nanoseconds.
func nowNs() int64 { return int64(time.Since(clockBase)) }
