package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fsio"
)

// scanData is the scan-cold data set: 16 ranks × 32 MiB (≈4.9× a 105 MiB
// LLC, 10.7× the 3 × 16 MiB cluster cache).
var scanData = dataset{ranks: 16, nfiles: 2, rankBytes: 32 << 20, recMin: 4 << 10, recMax: 1 << 20, chunk: 4 << 20}

const (
	scanWindow = 4 << 20 // bytes per ?off=&n= request
	scanConns  = 2       // closed-loop clients, one connection each
	scanNodes  = 3       // sionrouter -nodes
	scanSLO    = 250 * time.Millisecond
)

// req is one read of n logical bytes of rank at off.
type req struct {
	rank   int
	off, n int64
}

// served is the client-side tally of a measured phase.
type served struct {
	mu        sync.Mutex
	lats      []time.Duration
	ttfbs     []time.Duration
	bytes     int64 // verified payload bytes
	bodyBytes int64 // body bytes received, verified or not
	ops, fail int64
	good      int64 // requests within the SLO
}

func (s *served) add(r getResult, ok bool, n int64, slo time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	s.bodyBytes += r.got
	s.lats = append(s.lats, r.lat)
	s.ttfbs = append(s.ttfbs, r.ttfb)
	if !ok {
		s.fail++
		return
	}
	s.bytes += n
	if r.lat <= slo {
		s.good++
	}
}

// busyGBps is verified bytes over the summed request time per stream.
func (s *served) busyGBps(streams int) float64 {
	var sum time.Duration
	for _, l := range s.lats {
		sum += l
	}
	return float64(s.bytes) / (sum.Seconds() / float64(streams)) / 1e9
}

// setupServer writes the workload's data set into a fresh directory and
// starts an HTTP front end on it, setupReps times; all but the last are
// torn down again. It reports setup_s and write_GBps from the repeats.
func setupServer(e *env, w *workload, name string, args []string, warm func(*proc) error) (*proc, string, error) {
	var setups, writes []float64
	var p *proc
	var path string
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(e.work, fmt.Sprintf("%s-%d", name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, "", err
		}
		t := time.Now()
		newPath := filepath.Join(dir, "data.sion")
		c := writeDataset(fsio.NewOS(""), newPath, w.data, e.pl)
		e.count(c.ops, c.fails)
		if c.err != nil {
			return nil, "", c.err
		}
		np, err := startServer(name, filepath.Join(e.bin, name), dir, append(args, newPath)...)
		if err != nil {
			return nil, "", err
		}
		if warm != nil {
			if err := warm(np); err != nil {
				np.stop()
				return nil, "", err
			}
		}
		setups = append(setups, since(t))
		writes = append(writes, float64(c.bytes)/c.wall.Seconds()/1e9)
		if p != nil {
			p.stop()
			if err := os.RemoveAll(filepath.Dir(path)); err != nil {
				return nil, "", err
			}
		}
		p, path = np, newPath
	}
	if !e.trace {
		e.set("setup_s", median(setups))
		e.set("write_GBps", quantile(writes, 1)) // best of the repeats, against fsync noise
	}
	return p, path, nil
}

// reconcile checks the server's ServedBytes delta against the body bytes
// the client received and reports the front end's usage metrics.
func reconcile(e *env, s0, s1 scrape, u0, u1 usage, sv *served) {
	if d := s1.serve.ServedBytes - s0.serve.ServedBytes; d != sv.bodyBytes {
		e.count(1, 1)
		fmt.Fprintf(os.Stderr, "realbench: server counted %d served bytes, client received %d\n", d, sv.bodyBytes)
	}
	e.retries += s1.serve.Retries - s0.serve.Retries
	e.giveups += s1.serve.GiveUps - s0.serve.GiveUps
	e.count(sv.ops, sv.fail)
	if e.trace {
		setIO(e, promIO(s0.prom, s1.prom))
		st := s1.serve
		lookups := float64(st.Hits + st.Misses - s0.serve.Hits - s0.serve.Misses)
		e.set("serve.hit_ratio", float64(st.Hits-s0.serve.Hits)/max(lookups, 1))
		e.set("serve.flight_hits", float64(st.FlightHits-s0.serve.FlightHits))
		e.set("http.ttfb_ms_p50", durQuantileMs(sv.ttfbs, 0.5))
		return
	}
	e.set("cpu_s_per_GB", (u1.cpuS-u0.cpuS)/(float64(sv.bytes)/1e9))
	e.set("peak_rss_MB", u1.hwmMB)
}

// promIO turns the delta of a front end's fsio_* families into fsio
// counters. Busy time is the sampled mean latency times the op count.
func promIO(a, b map[string]float64) ioSnap {
	d := func(k string) float64 { return b[k] - a[k] }
	busy := func(op string) int64 {
		sel := `{op="` + op + `"}`
		n := d("fsio_op_seconds_count" + sel)
		if n == 0 {
			return 0
		}
		return int64(d("fsio_op_seconds_sum"+sel) / n * d("fsio_ops_total"+sel) * 1e9)
	}
	return ioSnap{
		ReadOps: int64(d(`fsio_ops_total{op="read"}`)), ReadBytes: int64(d(`fsio_bytes_total{op="read"}`)), ReadNs: busy("read"),
		WriteOps: int64(d(`fsio_ops_total{op="write"}`)), WriteBytes: int64(d(`fsio_bytes_total{op="write"}`)), WriteNs: busy("write"),
		SyncOps: int64(d(`fsio_ops_total{op="sync"}`)), SyncNs: busy("sync"),
	}
}

// runScan is the scan-cold closed loop against sionrouter.
func runScan(e *env, w *workload) error {
	p, _, err := setupServer(e, w, "sionrouter", []string{"-nodes", fmt.Sprint(scanNodes), "-cache-mb", fmt.Sprint(w.cache >> 20)}, nil)
	if err != nil {
		return err
	}
	defer p.stop()
	s0, err := scrapeServer(p.addr, true, e.trace)
	if err != nil {
		return err
	}
	u0, err := p.usage()
	if err != nil {
		return err
	}
	sv := &served{}
	ranks := newRankWalk(e.seed, w.data.ranks)
	c := newClient(scanConns)
	ph := e.tr.begin("bench.scan", 0, 0)
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := 0; i < scanConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, scanWindow)
			for time.Now().Before(deadline) {
				rank := ranks.next()
				for off := int64(0); off < w.data.rankBytes && time.Now().Before(deadline); off += scanWindow {
					n := min(scanWindow, w.data.rankBytes-off)
					s := e.tr.begin("http.get", ph.ID, ranks.reqID())
					r := getWindow(c, p.addr, rank, off, n, buf)
					e.tr.end(s)
					sv.add(r, r.ok && e.pl.verify(buf[:n], rank, off), n, scanSLO)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := e.seconds + max(0, time.Since(deadline).Seconds())
	e.tr.end(ph)
	s1, err := scrapeServer(p.addr, true, e.trace)
	if err != nil {
		return err
	}
	u1, err := p.usage()
	if err != nil {
		return err
	}
	reconcile(e, s0, s1, u0, u1, sv)
	if !e.trace {
		e.set("read_GBps", sv.busyGBps(scanConns))
		e.set("lat_p50_ms", durQuantileMs(sv.lats, 0.5))
		e.set("lat_p99_ms", durQuantileMs(sv.lats, 0.99))
		e.set("max_rps_at_slo", float64(sv.good)/elapsed)
	}
	fmt.Fprintf(os.Stderr, "scan-cold: %d windows, %.1f MB verified\n", sv.ops, float64(sv.bytes)/1e6)
	return nil
}

// rankWalk deals ranks from successive seeded permutations.
type rankWalk struct {
	mu   sync.Mutex
	rng  *rand.Rand
	n    int
	perm []int
	reqs int64
}

func newRankWalk(seed int64, n int) *rankWalk {
	return &rankWalk{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (r *rankWalk) next() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.perm) == 0 {
		r.perm = r.rng.Perm(r.n)
	}
	g := r.perm[0]
	r.perm = r.perm[1:]
	return g
}

func (r *rankWalk) reqID() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqs++
	return r.reqs
}

// scanSeqs are the ladder's sequences for scan-cold: the same window walk.
func scanSeqs(e *env, w *workload) (cold, warm []req) {
	walk := newRankWalk(e.seed, w.data.ranks)
	var all []req
	for len(all)*scanWindow < coldBytes {
		rank := walk.next()
		for off := int64(0); off < w.data.rankBytes; off += scanWindow {
			all = append(all, req{rank, off, min(scanWindow, w.data.rankBytes-off)})
		}
	}
	return prefix(all, coldBytes), prefix(all, warmBytes)
}

// prefix returns the leading requests of seq that move at most limit bytes.
func prefix(seq []req, limit int64) []req {
	var sum int64
	for i, r := range seq {
		if sum += r.n; sum > limit {
			return seq[:i]
		}
	}
	return seq
}
