package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// zipfData is the zipf-hot data set: 32 ranks × 1 MiB, which fits the
// default 64 MiB sionserve cache.
var zipfData = dataset{ranks: 32, nfiles: 2, rankBytes: 1 << 20, recMin: 4 << 10, recMax: 1 << 20, chunk: 1 << 20}

const (
	zipfConns = 2
	// zipfSLO is the p99 latency limit a ladder step must meet.
	zipfSLO = 40 * time.Millisecond
	// zipfLagLimit is how late (p99) the generator may send before a step
	// counts as not met: beyond it the client, not the server, limits the
	// offered load. Wake-ups on a shared 2-vCPU VM run a few ms late at
	// p99 even when idle, so the limit sits well above that.
	zipfLagLimit = zipfSLO / 2
	zipfS        = 1.1 // zipf exponent over (rank, block) keys
)

// zipfRates is the open-loop ladder in requests per second; the first is
// the reference rate, below the knee. On a quiet 2-vCPU VM every step
// meets the SLO (the knee lies near 8000/s), so the metric guards the
// knee against falling below the top step; claiming more capacity needs
// a higher step, which is a change to the benchmark.
var zipfRates = []float64{2000, 3000, 4000}

// zipfRequests draws n requests: zipfian over (rank, 64 KiB-aligned
// offset) keys in a seeded order, 4–64 KiB each.
func zipfRequests(rng *rand.Rand, d dataset, n int) []req {
	perRank := d.rankBytes / fsBlock
	keys := rng.Perm(d.ranks * int(perRank))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(keys)-1))
	out := make([]req, n)
	for i := range out {
		k := int64(keys[z.Uint64()])
		off := (k % perRank) * fsBlock
		size := 4<<10 + rng.Int63n(60<<10+1)
		out[i] = req{rank: int(k / perRank), off: off, n: min(size, d.rankBytes-off)}
	}
	return out
}

// arrival is one scheduled request of an open-loop step.
type arrival struct {
	at time.Duration // since the step's start
	r  req
}

// step is one rate of the ladder, generated before timing starts.
type step struct {
	rate float64
	dur  time.Duration
	arr  []arrival
}

// zipfSteps generates the whole ladder from the seed: Poisson arrivals
// per step, the reference step getting 60% of the measured time.
func zipfSteps(seed int64, d dataset, seconds float64) []step {
	rng := rand.New(rand.NewSource(seed))
	steps := make([]step, len(zipfRates))
	for i, rate := range zipfRates {
		share := 0.6
		if i > 0 {
			share = 0.4 / float64(len(zipfRates)-1)
		}
		dur := time.Duration(share * seconds * float64(time.Second))
		var ats []time.Duration
		for t := time.Duration(0); ; {
			t += time.Duration(-math.Log(1-rng.Float64()) / rate * float64(time.Second))
			if t >= dur {
				break
			}
			ats = append(ats, t)
		}
		reqs := zipfRequests(rng, d, len(ats))
		steps[i] = step{rate: rate, dur: dur, arr: make([]arrival, len(ats))}
		for j := range ats {
			steps[i].arr[j] = arrival{ats[j], reqs[j]}
		}
	}
	return steps
}

// zipfInterval is the slice of a step over which latency quantiles are
// taken. A step reports the quantile of its quietest interval (the
// interval minimum, as min-of-trials does for run times): other tenants
// of a shared VM only ever add latency, in bursts of seconds, so the
// quietest interval is the one that measures the program. An overloaded
// step still fails, by its growing backlog. At the reference rate an
// interval holds ≈1200 requests, 12 of them beyond p99.
const zipfInterval = 600 * time.Millisecond

// stepResult is the outcome of one open-loop step.
type stepResult struct {
	sv        *served
	p50, p99  float64       // ms, quietest interval
	lagP99    float64       // ms, quietest interval
	drain     time.Duration // completion of the last request after the schedule ended
	achieved  float64       // completed requests per second
	bytesRate float64       // verified payload bytes per second
	met       bool
}

// runStep plays one step open loop: a generator releases each request at
// its scheduled time to zipfConns workers, and latency counts from the
// scheduled time, so a stall charges every request queued behind it.
func runStep(e *env, c *http.Client, addr string, st step, parent int64) stepResult {
	// Sized to the step's arrivals so the generator never blocks on busy
	// workers: queueing shows up as latency, not as a late generator.
	queue := make(chan int, len(st.arr))
	due := make([]time.Time, len(st.arr))
	lags := make([]time.Duration, len(st.arr))
	lats := make([]time.Duration, len(st.arr))
	sv := &served{}
	var wg sync.WaitGroup
	for i := 0; i < zipfConns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for j := range queue {
				r := st.arr[j].r
				s := e.tr.begin("http.get", parent, int64(j+1))
				g := getWindow(c, addr, r.rank, r.off, r.n, buf)
				g.lat = time.Since(due[j])
				lats[j] = g.lat
				e.tr.end(s)
				sv.add(g, g.ok && e.pl.verify(buf[:r.n], r.rank, r.off), r.n, zipfSLO)
			}
		}()
	}
	start := time.Now()
	generate(start, st.arr, due, lags, queue)
	wg.Wait()
	elapsed := max(time.Since(start), st.dur)
	res := stepResult{
		sv:        sv,
		p50:       intervalQuantileMs(st.arr, lats, 0.5),
		p99:       intervalQuantileMs(st.arr, lats, 0.99),
		lagP99:    intervalQuantileMs(st.arr, lags, 0.99),
		achieved:  float64(sv.ops) / elapsed.Seconds(),
		bytesRate: float64(sv.bytes) / elapsed.Seconds(),
	}
	res.drain = elapsed - st.dur
	res.met = sv.fail == 0 && sv.ops > 0 && res.p99 <= ms(zipfSLO) && res.lagP99 <= ms(zipfLagLimit) && res.drain <= zipfSLO
	return res
}

// intervalQuantileMs is the smallest over zipfInterval slices of the step
// (by scheduled time) of each slice's q-quantile of xs, in ms.
func intervalQuantileMs(arr []arrival, xs []time.Duration, q float64) float64 {
	var per []float64
	for lo := 0; lo < len(arr); {
		slot := arr[lo].at / zipfInterval
		hi := lo
		for hi < len(arr) && arr[hi].at/zipfInterval == slot {
			hi++
		}
		per = append(per, durQuantileMs(xs[lo:hi], q))
		lo = hi
	}
	return quantile(per, 0)
}

// generate releases arrival j to queue at start+arr[j].at, recording its
// due time and how late it was released, then closes queue. It sleeps in
// nanosleep on a locked OS thread: the runtime's timers wake up to a
// millisecond late, which would be charged to the server.
func generate(start time.Time, arr []arrival, due []time.Time, lags []time.Duration, queue chan<- int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for j, a := range arr {
		d := start.Add(a.at)
		for w := time.Until(d); w > 0; w = time.Until(d) {
			ts := syscall.NsecToTimespec(int64(w))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		due[j] = d
		lags[j] = time.Since(d)
		queue <- j
	}
	close(queue)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runZipf is the zipf-hot open-loop ladder against sionserve.
func runZipf(e *env, w *workload) error {
	steps := zipfSteps(e.seed, w.data, e.seconds)
	warm := func(p *proc) error {
		c := newClient(1)
		buf := make([]byte, w.data.rankBytes)
		for r := 0; r < w.data.ranks; r++ {
			g := getWindow(c, p.addr, r, 0, w.data.rankBytes, buf)
			if !g.ok || !e.pl.verify(buf, r, 0) {
				return fmt.Errorf("cache warm-up of rank %d failed", r)
			}
		}
		return nil
	}
	p, _, err := setupServer(e, w, "sionserve", []string{"-cache-mb", fmt.Sprint(w.cache >> 20)}, warm)
	if err != nil {
		return err
	}
	defer p.stop()
	s0, err := scrapeServer(p.addr, false, e.trace)
	if err != nil {
		return err
	}
	u0, err := p.usage()
	if err != nil {
		return err
	}
	c := newClient(zipfConns)
	total := &served{}
	var ref, best stepResult
	for i, st := range steps {
		ph := e.tr.begin(fmt.Sprintf("bench.zipf_step_%g", st.rate), 0, 0)
		r := runStep(e, c, p.addr, st, ph.ID)
		e.tr.end(ph)
		if i == 0 {
			ref = r
		}
		if r.met {
			best = r
		}
		fmt.Fprintf(os.Stderr, "zipf-hot: rate %6.0f/s: %5d reqs, p50 %.3f ms, p99 %.3f ms (all: %.3f), lag p99 %.3f ms, drain %v, met %v\n",
			st.rate, r.sv.ops, r.p50, r.p99, durQuantileMs(r.sv.lats, 0.99), r.lagP99, r.drain.Round(time.Microsecond), r.met)
		total.lats = append(total.lats, r.sv.lats...)
		total.ttfbs = append(total.ttfbs, r.sv.ttfbs...)
		total.bytes += r.sv.bytes
		total.bodyBytes += r.sv.bodyBytes
		total.ops += r.sv.ops
		total.fail += r.sv.fail
		time.Sleep(50 * time.Millisecond)
	}
	s1, err := scrapeServer(p.addr, false, e.trace)
	if err != nil {
		return err
	}
	u1, err := p.usage()
	if err != nil {
		return err
	}
	reconcile(e, s0, s1, u0, u1, total)
	if e.trace {
		e.set("bench.gen_lag_ms_p99", ref.lagP99)
		return nil
	}
	e.set("read_GBps", best.bytesRate/1e9)
	e.set("lat_p50_ms", ref.p50)
	e.set("lat_p99_ms", ref.p99)
	e.set("max_rps_at_slo", best.achieved)
	return nil
}

// zipfSeqs are the ladder's sequences for zipf-hot: cold is a sequential
// walk of every rank in 64 KiB windows; warm is the zipfian request mix.
func zipfSeqs(e *env, w *workload) (cold, warm []req) {
	walk := newRankWalk(e.seed, w.data.ranks)
	for i := 0; i < w.data.ranks; i++ {
		rank := walk.next()
		for off := int64(0); off < w.data.rankBytes; off += fsBlock {
			cold = append(cold, req{rank, off, min(fsBlock, w.data.rankBytes-off)})
		}
	}
	return prefix(cold, coldBytes), zipfRequests(rand.New(rand.NewSource(e.seed)), w.data, 4000)
}
