package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	sion "repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/serve"
)

const (
	coldBytes     = 128 << 20 // bytes the ladder's cold sequence reads
	warmBytes     = 48 << 20  // bytes the warm sequence reads (fits the warm caches)
	warmCache     = 128 << 20 // serve warm cache budget
	warmNodeCache = 64 << 20  // per-node cluster warm cache budget
	ladderNodes   = 3
	// overheadTrials is how many traced and untraced cold replays the
	// ladder interleaves; each side keeps its fastest.
	overheadTrials = 2
)

// logicalReader is what each layer of the ladder offers for one rank:
// *sion.File, *serve.Handle and the raw floor all have ReadLogicalAt.
type logicalReader interface {
	ReadLogicalAt(p []byte, off int64) (int, error)
}

// replayed is the outcome of one replay of a request sequence.
type replayed struct {
	lats       []time.Duration
	busy       time.Duration // summed call time
	bytes      int64
	fails      int64
	mallocs    uint64
	allocBytes uint64
}

func (r replayed) gbps() float64 { return float64(r.bytes) / r.busy.Seconds() / 1e9 }

// replay reads seq through the handles open returns, one call per
// request, verifying each after its timing stops. Handles are opened
// before timing. Every call gets a span named layer.
func replay(e *env, tr *tracer, layer string, seq []req, open func(rank int) (logicalReader, error)) (replayed, error) {
	handles := make(map[int]logicalReader)
	var maxN int64
	for _, r := range seq {
		maxN = max(maxN, r.n)
		if _, ok := handles[r.rank]; !ok {
			h, err := open(r.rank)
			if err != nil {
				return replayed{}, fmt.Errorf("%s: open rank %d: %w", layer, r.rank, err)
			}
			handles[r.rank] = h
		}
	}
	defer func() {
		for _, h := range handles {
			if c, ok := h.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	buf := make([]byte, maxN)
	out := replayed{lats: make([]time.Duration, 0, len(seq))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := tr.begin(layer+".replay", 0, 0)
	for i, r := range seq {
		s := tr.begin(layer, ph.ID, int64(i+1))
		done := tr.enter(s)
		t := time.Now()
		n, err := handles[r.rank].ReadLogicalAt(buf[:r.n], r.off)
		dt := time.Since(t)
		done()
		tr.end(s)
		out.lats = append(out.lats, dt)
		out.busy += dt
		if err != nil || int64(n) != r.n || !e.pl.verify(buf[:r.n], r.rank, r.off) {
			out.fails++
			continue
		}
		out.bytes += r.n
	}
	tr.end(ph)
	runtime.ReadMemStats(&m1)
	out.mallocs, out.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	e.count(int64(len(seq)), out.fails)
	return out, nil
}

// floorReader reads a rank's logical stream straight from the physical
// files with fsio ReadAt calls: the raw pread floor.
type floorReader struct {
	fhs  []fsio.File
	exts []sion.BlockExtent
}

func (f *floorReader) ReadLogicalAt(p []byte, off int64) (int, error) {
	total := 0
	for _, x := range f.exts {
		if len(p) == 0 {
			break
		}
		if off >= x.Bytes {
			off -= x.Bytes
			continue
		}
		n := min(int64(len(p)), x.Bytes-off)
		if _, err := f.fhs[x.File].ReadAt(p[:n], x.Off+off); err != nil {
			return total, err
		}
		p, off, total = p[n:], 0, total+int(n)
	}
	if len(p) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// replayFloor replays seq as raw preads of the same extents.
func replayFloor(e *env, fsys fsio.FileSystem, tr *tracer, layout *sion.Layout, seq []req) (replayed, error) {
	fhs := make([]fsio.File, layout.NumFiles())
	for k := range fhs {
		fh, err := fsys.Open(layout.PhysicalName(k))
		if err != nil {
			return replayed{}, err
		}
		defer fh.Close()
		fhs[k] = fh
	}
	return replay(e, tr, "fsio.floor_read", seq, func(rank int) (logicalReader, error) {
		return &floorReader{fhs: fhs, exts: layout.RankBlocks(rank)}, nil
	})
}

// serveRun is a replay through one serve.Server with its counter deltas.
type serveRun struct {
	replayed
	st         serve.Stats
	spans      float64 // serve_fetch_spans_total delta
	spanBlocks float64 // serve_fetch_span_blocks_total delta
}

// replayServe replays seq through a fresh serve.Server with the given
// cache budget; warm replays seq once, untimed, before measuring.
func replayServe(e *env, fsys fsio.FileSystem, tr *tracer, name string, seq []req, cache int64, warm bool) (serveRun, error) {
	srv, err := serve.New(fsys, name, &serve.Config{CacheBytes: cache})
	if err != nil {
		return serveRun{}, err
	}
	defer srv.Close()
	open := func(rank int) (logicalReader, error) { return srv.Open(rank) }
	if warm {
		if _, err := replay(e, nil, "serve.warmup", seq, open); err != nil {
			return serveRun{}, err
		}
	}
	s0, p0 := srv.Stats(), promOf(srv)
	r, err := replay(e, tr, "serve.read", seq, open)
	if err != nil {
		return serveRun{}, err
	}
	s1, p1 := srv.Stats(), promOf(srv)
	return serveRun{
		replayed:   r,
		st:         subStats(s1, s0),
		spans:      p1["serve_fetch_spans_total"] - p0["serve_fetch_spans_total"],
		spanBlocks: p1["serve_fetch_span_blocks_total"] - p0["serve_fetch_span_blocks_total"],
	}, nil
}

// promOf reads a server's registry the way /metrics exposes it.
func promOf(srv *serve.Server) map[string]float64 {
	var b strings.Builder
	if err := srv.Metrics().WriteProm(&b); err != nil {
		return nil
	}
	m, _ := parseProm(strings.NewReader(b.String()))
	return m
}

// clusterRun is a replay through a cluster with its counter deltas.
type clusterRun struct {
	replayed
	st cluster.Stats
}

// replayCluster replays seq through a fresh cluster of ladderNodes nodes.
func replayCluster(e *env, fsys fsio.FileSystem, tr *tracer, name string, seq []req, nodeCache int64, warm bool) (clusterRun, error) {
	c := cluster.New(nil)
	defer c.Close()
	for i := 1; i <= ladderNodes; i++ {
		if _, err := c.Join(fmt.Sprintf("n%d", i), fsys, name, &serve.Config{CacheBytes: nodeCache}); err != nil {
			return clusterRun{}, err
		}
	}
	open := func(rank int) (logicalReader, error) { return c.Open(rank) }
	if warm {
		if _, err := replay(e, nil, "cluster.warmup", seq, open); err != nil {
			return clusterRun{}, err
		}
	}
	s0 := c.Stats()
	r, err := replay(e, tr, "cluster.read", seq, open)
	if err != nil {
		return clusterRun{}, err
	}
	s1 := c.Stats()
	st := s1
	st.Requests -= s0.Requests
	st.Failovers -= s0.Failovers
	st.AllReplicasDown -= s0.AllReplicasDown
	st.Serve = subStats(s1.Serve, s0.Serve)
	return clusterRun{replayed: r, st: st}, nil
}

// subStats is a − b for the counters of serve.Stats.
func subStats(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		Hits: a.Hits - b.Hits, Misses: a.Misses - b.Misses, FlightHits: a.FlightHits - b.FlightHits,
		BackendReads: a.BackendReads - b.BackendReads, BackendBytes: a.BackendBytes - b.BackendBytes,
		ServedBytes: a.ServedBytes - b.ServedBytes, Evictions: a.Evictions - b.Evictions,
		CachedBytes: a.CachedBytes, HandlesOpened: a.HandlesOpened - b.HandlesOpened,
		TailPolls: a.TailPolls - b.TailPolls, PeerFills: a.PeerFills - b.PeerFills,
		Retries: a.Retries - b.Retries, GiveUps: a.GiveUps - b.GiveUps,
		Degraded: a.Degraded - b.Degraded, BreakerOpens: a.BreakerOpens - b.BreakerOpens,
	}
}

// runLadder is the traced run's in-process ladder: it writes the
// workload's data set through core, measures the raw pwrite/fsync floor,
// then replays the workload's cold and warm request sequences through the
// raw pread floor, core, serve and cluster, and finally through the
// sionserve and sionrouter binaries over HTTP.
func runLadder(e *env, w *workload) error {
	dir := filepath.Join(e.work, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	plain := fsio.NewOS(dir)
	tfs := newTraceFS(plain, e.tr)
	const name = "ladder.sion"

	// core write and restart, the fsio decorator counting what they cost.
	io0 := tfs.io.snap()
	ph := e.tr.begin("core.write", 0, 0)
	done := e.tr.enter(ph)
	wc := writeDataset(tfs, name, w.data, e.pl)
	done()
	e.tr.end(ph)
	wio := tfs.io.snap().sub(io0)
	ph = e.tr.begin("core.read", 0, 0)
	done = e.tr.enter(ph)
	rc := readDataset(tfs, name, w.data, e.pl)
	done()
	e.tr.end(ph)
	for _, c := range []cycle{wc, rc} {
		e.count(c.ops, c.fails)
		if c.err != nil {
			return c.err
		}
	}
	payloadMB := float64(wc.bytes) / 1e6
	e.set("core.paropen_write_ms", ms(wc.open))
	e.set("core.write_busy_s", wc.busy.Seconds())
	e.set("core.close_ms", ms(wc.close))
	e.set("core.paropen_read_ms", ms(rc.open))
	e.set("core.read_busy_s", rc.busy.Seconds())
	e.set("core.write_amplification", float64(wio.WriteBytes)/float64(wc.bytes))
	e.set("core.writes_per_MB", float64(wio.WriteOps)/payloadMB)
	e.set("core.rank_skew_ms", ms((wc.skew+rc.skew)/2))

	// Raw pwrite + fsync floor over the same bytes.
	pw, fsync, err := writeFloor(e, tfs, w)
	if err != nil {
		return err
	}
	e.set("fsio.pwrite_GBps", pw)
	e.set("fsio.fsync_ms", ms(fsync))
	e.set("core.write_floor_ratio", float64(wc.bytes)/wc.wall.Seconds()/1e9/pw)

	cold, warm := w.seqs(e, w)
	layout, err := sion.LoadLayout(tfs, name)
	if err != nil {
		return err
	}
	floorCold, err := replayFloor(e, tfs, e.tr, layout, cold)
	if err != nil {
		return err
	}
	floorWarm, err := replayFloor(e, tfs, e.tr, layout, warm)
	if err != nil {
		return err
	}
	e.set("fsio.pread_GBps", floorCold.gbps())
	coreCold, err := replay(e, e.tr, "core.read_logical", cold, func(rank int) (logicalReader, error) {
		return sion.OpenRank(tfs, name, rank)
	})
	if err != nil {
		return err
	}
	e.set("core.read_floor_ratio", coreCold.gbps()/floorCold.gbps())

	// serve and cluster cold: traced for time and counters, untraced for
	// allocations and the tracing overhead; interleaved trials, the
	// fastest of each kind kept, against scheduler noise.
	var sc, scPlain serveRun
	var cc, ccPlain clusterRun
	for trial := 0; trial < overheadTrials; trial++ {
		for _, traced := range []bool{false, true} {
			fs, tr := fsio.FileSystem(plain), (*tracer)(nil)
			if traced {
				fs, tr = tfs, e.tr
			}
			s, err := replayServe(e, fs, tr, name, cold, w.cache, false)
			if err != nil {
				return err
			}
			c, err := replayCluster(e, fs, tr, name, cold, w.cache, false)
			if err != nil {
				return err
			}
			bs, bc := &scPlain, &ccPlain
			if traced {
				bs, bc = &sc, &cc
			}
			if trial == 0 || s.busy < bs.busy {
				*bs = s
			}
			if trial == 0 || c.busy < bc.busy {
				*bc = c
			}
		}
	}
	sw, err := replayServe(e, tfs, e.tr, name, warm, warmCache, true)
	if err != nil {
		return err
	}
	cw, err := replayCluster(e, tfs, e.tr, name, warm, warmNodeCache, true)
	if err != nil {
		return err
	}
	windows := float64(len(cold))
	served := float64(scPlain.bytes)
	e.set("serve.cold_GBps", sc.gbps())
	e.set("serve.warm_GBps", sw.gbps())
	e.set("serve.cold_floor_ratio", sc.gbps()/floorCold.gbps())
	e.set("serve.warm_floor_ratio", sw.gbps()/floorWarm.gbps())
	if _, ok := e.metrics["serve.hit_ratio"]; !ok {
		e.set("serve.hit_ratio", float64(sc.st.Hits)/float64(max(sc.st.Hits+sc.st.Misses, 1)))
		e.set("serve.flight_hits", float64(sc.st.FlightHits))
	}
	e.set("serve.evictions_per_MB", float64(sc.st.Evictions)/(float64(sc.bytes)/1e6))
	e.set("serve.backend_reads_per_window", float64(sc.st.BackendReads)/windows)
	e.set("serve.blocks_per_span", sc.spanBlocks/max(sc.spans, 1))
	e.set("serve.backend_bytes_per_served_byte", float64(sc.st.BackendBytes)/float64(max(sc.st.ServedBytes, 1)))
	e.set("serve.alloc_bytes_per_served_byte", float64(scPlain.allocBytes)/served)
	e.set("serve.allocs_per_MB", float64(scPlain.mallocs)/(served/1e6))
	e.set("serve.read_p50_us", durQuantileMs(sw.lats, 0.5)*1e3)
	e.set("serve.read_p99_us", durQuantileMs(sw.lats, 0.99)*1e3)
	e.set("cluster.cold_GBps", cc.gbps())
	e.set("cluster.warm_GBps", cw.gbps())
	e.set("cluster.warm_vs_serve_warm", cw.gbps()/sw.gbps())
	e.set("cluster.backend_reads_per_window", float64(cc.st.Serve.BackendReads)/windows)
	e.set("cluster.requests_per_window", float64(cc.st.Requests)/windows)
	e.set("cluster.peer_fills", float64(cc.st.Serve.PeerFills))
	e.set("cluster.failovers", float64(cc.st.Failovers))
	e.set("cluster.allocs_per_block", float64(ccPlain.mallocs)/float64(max(ccPlain.st.Requests, 1)))
	traced := (sc.busy + cc.busy).Seconds()
	untraced := (scPlain.busy + ccPlain.busy).Seconds()
	e.set("bench.trace_overhead_frac", traced/untraced-1)
	for _, st := range []serve.Stats{sc.st, scPlain.st, cc.st.Serve, ccPlain.st.Serve, sw.st, cw.st.Serve} {
		e.retries += st.Retries
		e.giveups += st.GiveUps
	}

	if err := httpLadder(e, w, filepath.Join(dir, name), cold, warm, durQuantileMs(sw.lats, 0.5), durQuantileMs(cc.lats, 0.5)); err != nil {
		return err
	}
	e.set("resil.retries", float64(e.retries))
	e.set("resil.giveups", float64(e.giveups))
	if _, ok := e.metrics["bench.gen_lag_ms_p99"]; !ok {
		e.set("bench.gen_lag_ms_p99", 0) // closed loops have no schedule to fall behind
	}
	return nil
}

// writeFloor is the pwrite floor: raw WriteAt calls lay the data set's
// bytes out as core does — one goroutine per rank writing its stream
// contiguously into its physical file in chunk-sized requests — and then
// every file is fsynced, each by its own goroutine as core's file masters
// do at Close.
func writeFloor(e *env, fsys fsio.FileSystem, w *workload) (gbps float64, fsync time.Duration, err error) {
	d := w.data
	fhs := make([]fsio.File, d.nfiles)
	for k := range fhs {
		name := fmt.Sprintf("floor.%d", k)
		fh, err := fsys.Create(name)
		if err != nil {
			return 0, 0, err
		}
		defer fsys.Remove(name) // the ladder's directory is removed with the run's scratch
		defer fh.Close()
		fhs[k] = fh
	}
	ph := e.tr.begin("fsio.floor_write", 0, 0)
	done := e.tr.enter(ph)
	defer func() { done(); e.tr.end(ph) }()
	perFile := d.ranks / d.nfiles
	t := time.Now()
	err = parallel(d.ranks, func(r int) error {
		fh, base := fhs[r/perFile], int64(r%perFile)*d.rankBytes
		for off := int64(0); off < d.rankBytes; {
			n := min(d.chunk, d.rankBytes-off, patLen)
			if _, err := fh.WriteAt(e.pl.at(r, off, int(n)), base+off); err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	ts := time.Now()
	if err := parallel(d.nfiles, func(k int) error { return fhs[k].Sync() }); err != nil {
		return 0, 0, err
	}
	fsync = time.Since(ts)
	return float64(d.total()) / time.Since(t).Seconds() / 1e9, fsync, nil
}

// parallel runs f(0..n-1) on n goroutines and returns their errors joined.
func parallel(n int, f func(int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// httpLadder replays the warm sequence through sionserve (after one
// warming pass) and the cold sequence through a fresh sionrouter, one
// connection each, and reports each front end's median latency above the
// in-process median of the same sequence.
func httpLadder(e *env, w *workload, path string, cold, warm []req, serveWarmMs, clusterColdMs float64) error {
	dir := filepath.Dir(path)
	ss, err := startServer("sionserve", filepath.Join(e.bin, "sionserve"), dir, "-cache-mb", fmt.Sprint(warmCache>>20), path)
	if err != nil {
		return err
	}
	defer ss.stop()
	if _, err := replayHTTP(e, ss.addr, "http.warmup", warm); err != nil {
		return err
	}
	sv, err := replayHTTP(e, ss.addr, "http.sionserve", warm)
	if err != nil {
		return err
	}
	ss.stop()
	rt, err := startServer("sionrouter", filepath.Join(e.bin, "sionrouter"), dir,
		"-nodes", fmt.Sprint(ladderNodes), "-cache-mb", fmt.Sprint(w.cache>>20), path)
	if err != nil {
		return err
	}
	defer rt.stop()
	rv, err := replayHTTP(e, rt.addr, "http.sionrouter", cold)
	if err != nil {
		return err
	}
	e.set("http.sionserve.req_overhead_us", (durQuantileMs(sv.lats, 0.5)-serveWarmMs)*1e3)
	e.set("http.sionrouter.req_overhead_us", (durQuantileMs(rv.lats, 0.5)-clusterColdMs)*1e3)
	if _, ok := e.metrics["http.ttfb_ms_p50"]; !ok {
		e.set("http.ttfb_ms_p50", durQuantileMs(sv.ttfbs, 0.5))
	}
	return nil
}

// replayHTTP replays seq over one connection, closed loop.
func replayHTTP(e *env, addr, layer string, seq []req) (*served, error) {
	c := newClient(1)
	var maxN int64
	for _, r := range seq {
		maxN = max(maxN, r.n)
	}
	buf := make([]byte, maxN)
	sv := &served{}
	ph := e.tr.begin(layer+".replay", 0, 0)
	for i, r := range seq {
		s := e.tr.begin(layer, ph.ID, int64(i+1))
		g := getWindow(c, addr, r.rank, r.off, r.n, buf)
		e.tr.end(s)
		sv.add(g, g.ok && e.pl.verify(buf[:r.n], r.rank, r.off), r.n, time.Hour)
	}
	e.tr.end(ph)
	e.count(sv.ops, sv.fail)
	if sv.fail > 0 {
		return sv, fmt.Errorf("%s: %d of %d requests failed", layer, sv.fail, sv.ops)
	}
	return sv, nil
}
