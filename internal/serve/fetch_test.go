package serve

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fsio"
	"repro/internal/resil"
)

// rangeFaultFS wraps a FileSystem so that ReadAt calls overlapping an
// installed offset range fail with that range's error — the minimal tool
// for making two spans of one fetch batch fail differently.
type rangeFaultFS struct {
	fsio.FileSystem
	mu    sync.Mutex
	rules []faultRule
}

type faultRule struct {
	lo, hi int64
	err    error
}

func (r *rangeFaultFS) fail(lo, hi int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = append(r.rules, faultRule{lo, hi, err})
}

func (r *rangeFaultFS) Open(name string) (fsio.File, error) {
	fh, err := r.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &rangeFaultFile{File: fh, fs: r}, nil
}

type rangeFaultFile struct {
	fsio.File
	fs *rangeFaultFS
}

func (f *rangeFaultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	end := off + int64(len(p))
	for _, r := range f.fs.rules {
		if off < r.hi && end > r.lo {
			return 0, r.err
		}
	}
	return f.File.ReadAt(p, off)
}

// TestFetchPerSpanErrors pins the per-request error attribution of a fetch
// batch: when two spans of one batch fail with different errors, each
// request is answered with the error that covered its own blocks — not
// with whichever span happened to fail first — and a request whose blocks
// all materialized still succeeds alongside the failures.
func TestFetchPerSpanErrors(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	writeMultifile(t, inner, "e.sion", 4)
	ffs := &rangeFaultFS{FileSystem: inner}
	s, err := New(ffs, "e.sion", &Config{
		CacheBytes: 1 << 20,
		MaxSpanGap: -1, // merge only adjacent blocks: distinct blocks = distinct spans
		Retry:      &resil.Budget{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bs := s.BlockBytes()

	errA := fmt.Errorf("span A is down: %w", fsio.ErrTransient)
	errB := errors.New("span B is corrupt") // permanent: no ErrTransient wrap
	ffs.fail(0*bs, 1*bs, errA)              // block 0
	ffs.fail(8*bs, 9*bs, errB)              // block 8

	reply := func() chan fetchRes { return make(chan fetchRes, 1) }
	reqA := &fetchReq{blocks: []int64{0}, reply: reply()}
	reqB := &fetchReq{blocks: []int64{8}, reply: reply()}
	reqOK := &fetchReq{blocks: []int64{4}, reply: reply()}
	s.fetchers[0].serve([]*fetchReq{reqA, reqB, reqOK})

	resA, resB, resOK := <-reqA.reply, <-reqB.reply, <-reqOK.reply
	if !errors.Is(resA.err, errA) {
		t.Fatalf("request for block 0 got %v, want its own span error %v", resA.err, errA)
	}
	if errors.Is(resA.err, errB) {
		t.Fatalf("request for block 0 was attributed span B's error: %v", resA.err)
	}
	if !errors.Is(resB.err, errB) {
		t.Fatalf("request for block 8 got %v, want its own span error %v", resB.err, errB)
	}
	if errors.Is(resB.err, errA) {
		t.Fatalf("request for block 8 was attributed span A's error: %v", resB.err)
	}
	// The misclassification the bug caused: block 8's failure is permanent,
	// and must not look transient because span A failed transiently first.
	if c := resil.Classify(resB.err); c != resil.ClassPermanent {
		t.Fatalf("request for block 8 classified %v, want permanent", c)
	}
	if c := resil.Classify(resA.err); c != resil.ClassTransient {
		t.Fatalf("request for block 0 classified %v, want transient", c)
	}
	if resOK.err != nil {
		t.Fatalf("request for healthy block 4 failed alongside the batch: %v", resOK.err)
	}
	if int64(len(resOK.data[4])) != bs {
		t.Fatalf("healthy block 4 materialized %d bytes, want %d", len(resOK.data[4]), bs)
	}
}

// TestPeerFillSkipsBackend pins the peer-fill fetch path: a node whose
// PeerFill hook can produce a block caches it without issuing any backend
// read, serves it byte-identically, and counts it in Stats.PeerFills.
func TestPeerFillSkipsBackend(t *testing.T) {
	fsys := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, fsys, "p.sion", 4)

	a, err := New(fsys, "p.sion", &Config{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(fsys, "p.sion", &Config{
		CacheBytes: 1 << 20,
		PeerFill:   func(file int, block int64) ([]byte, bool) { return a.Peek(file, block) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Warm node a with rank 0's whole stream.
	ha, err := a.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	want := payloads[0]
	got := make([]byte, len(want))
	if _, err := ha.ReadLogicalAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node a: bytes differ")
	}
	if n := a.Stats().BackendReads; n == 0 {
		t.Fatal("node a issued no backend reads warming up")
	}

	// Node b reads the same rank: every miss must fill from a's cache.
	hb, err := b.Open(0)
	if err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(want))
	if _, err := hb.ReadLogicalAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("node b: peer-filled bytes differ")
	}
	st := b.Stats()
	if st.BackendReads != 0 {
		t.Fatalf("node b issued %d backend reads despite peer fill", st.BackendReads)
	}
	if st.PeerFills == 0 {
		t.Fatal("node b counted no peer fills")
	}
	// Peek is passive: asking for an uncached block is not a miss.
	misses := a.Stats().Misses
	if _, ok := a.Peek(0, 1<<30); ok {
		t.Fatal("Peek invented a block")
	}
	if _, ok := a.Peek(-1, 0); ok {
		t.Fatal("Peek accepted a negative file index")
	}
	if got := a.Stats().Misses; got != misses {
		t.Fatalf("Peek moved the miss counter %d -> %d", misses, got)
	}
}

// cappedFS reports a ranged-read ceiling in its capability descriptor and
// records the size of every ReadAt issued through it.
type cappedFS struct {
	fsio.FileSystem
	maxRead int64
	mu      sync.Mutex
	sizes   []int
}

func (c *cappedFS) Capabilities() fsio.Capabilities {
	return fsio.Capabilities{MaxReadBytes: c.maxRead}
}

func (c *cappedFS) Open(name string) (fsio.File, error) {
	fh, err := c.FileSystem.Open(name)
	if err != nil {
		return nil, err
	}
	return &cappedFile{File: fh, fs: c}, nil
}

func (c *cappedFS) largest() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0
	for _, n := range c.sizes {
		m = max(m, n)
	}
	return m
}

type cappedFile struct {
	fsio.File
	fs *cappedFS
}

func (f *cappedFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	f.fs.sizes = append(f.fs.sizes, len(p))
	f.fs.mu.Unlock()
	return f.File.ReadAt(p, off)
}

// TestSpanReadsRespectMaxReadBytes pins the span ceiling derived from the
// backend's MaxReadBytes capability: rounded down to whole 256-byte cache
// blocks, never below one block, unbounded when the backend reports none.
func TestSpanReadsRespectMaxReadBytes(t *testing.T) {
	inner := fsio.NewOS(t.TempDir())
	payloads := writeMultifile(t, inner, "m.sion", 4)
	for _, tc := range []struct {
		maxRead int64
		want    int // largest backend read expected while streaming a rank
	}{
		{600, 512}, // rounded down to two blocks
		{100, 256}, // floor of one block
		{0, 1024},  // unbounded: a whole chunk (4 dense blocks) in one read
	} {
		fsys := &cappedFS{FileSystem: inner, maxRead: tc.maxRead}
		s, err := New(fsys, "m.sion", &Config{CacheBytes: 1 << 20, MaxSpanGap: -1})
		if err != nil {
			t.Fatal(err)
		}
		fsys.sizes = nil // drop the metadata reads of New
		h, err := s.Open(1)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payloads[1]))
		if _, err := h.ReadLogicalAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payloads[1]) {
			t.Fatalf("MaxReadBytes %d: bytes differ", tc.maxRead)
		}
		if m := fsys.largest(); m != tc.want {
			t.Errorf("MaxReadBytes %d: largest backend read %d B, want %d", tc.maxRead, m, tc.want)
		}
		s.Close()
	}
}
