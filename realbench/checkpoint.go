package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	sion "repro/internal/core"
	"repro/internal/fsio"
)

// ckptData is the checkpoint: 8 ranks × 64 MiB (≈4.9× a 105 MiB LLC) in
// 2 physical files, records of 4 KiB–1 MiB.
var ckptData = dataset{ranks: 8, nfiles: 2, rankBytes: 64 << 20, recMin: 4 << 10, recMax: 1 << 20, chunk: 4 << 20}

// ckptSLO is the per-call latency limit for checkpoint Write/Read calls.
const ckptSLO = 50 * time.Millisecond

// setupReps is how many times each run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// ckptResult is the checkpoint worker's report.
type ckptResult struct {
	WriteGBps []float64 `json:"write_gbps"` // per cycle
	ReadGBps  []float64 `json:"read_gbps"`  // per cycle
	LatP50Ms  []float64 `json:"lat_p50_ms"` // per cycle, Write and Read calls pooled
	LatP99Ms  []float64 `json:"lat_p99_ms"` // per cycle
	GoodRate  []float64 `json:"good_rate"`  // per cycle, calls within ckptSLO per second
	Ops       int64     `json:"ops"`
	Fails     int64     `json:"fails"`
	Bytes     int64     `json:"bytes"` // written plus read back
	IO        ioSnap    `json:"io"`    // traced runs: the fsio decorator's counts
	Err       string    `json:"err,omitempty"`
}

// worker is a running checkpoint worker child.
type worker struct {
	p   *proc
	in  *os.File
	out *bufio.Reader
	r   *os.File
}

// startWorker starts the benchmark binary as a checkpoint worker and
// waits until it reports ready.
func startWorker(e *env, dir string) (*worker, error) {
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	args := []string{"-child", dir, "-seed", strconv.FormatInt(e.seed, 10),
		"-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64)}
	if e.trace {
		args = append(args, "-trace-out", strings.TrimSuffix(e.traceOut, ".jsonl")+"-worker.jsonl")
	}
	p, err := start("checkpoint", filepath.Join(e.bin, "realbench"), e.work, args, inR, outW)
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	w := &worker{p: p, in: inW, out: bufio.NewReader(outR), r: outR}
	line, err := w.out.ReadString('\n')
	if err != nil || line != "ready\n" {
		w.stop()
		return nil, fmt.Errorf("checkpoint worker did not start (%q, %v): %s", line, err, p.tail())
	}
	return w, nil
}

// stop closes the worker's stdin, which ends it, and reaps it.
func (w *worker) stop() {
	w.in.Close()
	select {
	case <-w.p.done:
	case <-time.After(30 * time.Second):
	}
	w.p.stop()
	w.r.Close()
}

// runCheckpoint measures checkpoint write and restart cycles in a worker
// child: set-up is the worker's start until ready, repeated.
func runCheckpoint(e *env, _ *workload) error {
	dir := filepath.Join(e.work, "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var setups []float64
	var w *worker
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		nw, err := startWorker(e, dir)
		if err != nil {
			return err
		}
		setups = append(setups, since(t))
		if w != nil {
			w.stop()
		}
		w = nw
	}
	defer w.stop()
	u0, err := w.p.usage()
	if err != nil {
		return err
	}
	ph := e.tr.begin("bench.checkpoint", 0, 0)
	if _, err := io.WriteString(w.in, "go\n"); err != nil {
		return err
	}
	line, err := w.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("checkpoint worker: %v: %s", err, w.p.tail())
	}
	u1, err := w.p.usage()
	if err != nil {
		return err
	}
	e.tr.end(ph)
	var r ckptResult
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		return fmt.Errorf("checkpoint worker result %q: %w", line, err)
	}
	e.count(r.Ops, r.Fails)
	if r.Err != "" {
		e.count(1, 1)
		fmt.Fprintln(os.Stderr, "realbench: checkpoint:", r.Err)
	}
	if e.trace {
		setIO(e, r.IO)
		return nil
	}
	// Each cycle is a trial; the best one is reported (min-of-trials):
	// other tenants of a shared VM only ever slow a cycle down.
	gb := float64(r.Bytes) / 1e9
	e.set("setup_s", median(setups))
	e.set("write_GBps", quantile(r.WriteGBps, 1))
	e.set("read_GBps", quantile(r.ReadGBps, 1))
	e.set("lat_p50_ms", quantile(r.LatP50Ms, 0))
	e.set("lat_p99_ms", quantile(r.LatP99Ms, 0))
	e.set("max_rps_at_slo", quantile(r.GoodRate, 1))
	e.set("cpu_s_per_GB", (u1.cpuS-u0.cpuS)/gb)
	e.set("peak_rss_MB", u1.hwmMB)
	return nil
}

// setIO reports fsio counters measured on the data path of the run.
func setIO(e *env, s ioSnap) {
	e.set("fsio.read_ops", float64(s.ReadOps))
	e.set("fsio.read_bytes", float64(s.ReadBytes))
	e.set("fsio.read_busy_s", float64(s.ReadNs)/1e9)
	e.set("fsio.write_ops", float64(s.WriteOps))
	e.set("fsio.write_bytes", float64(s.WriteBytes))
	e.set("fsio.write_busy_s", float64(s.WriteNs)/1e9)
	e.set("fsio.sync_ops", float64(s.SyncOps))
	e.set("fsio.sync_busy_s", float64(s.SyncNs)/1e9)
}

// checkpointChild is the worker: after "go" on stdin it writes a fresh
// generation of the checkpoint, restarts from it with a verified read,
// and removes it (untimed), until the measured time is up; then it prints
// its result and waits for stdin to close.
func checkpointChild(dir string, seed int64, seconds float64, traceOut string) int {
	traced := traceOut != ""
	pl := newPayload(seed)
	d := ckptData
	plain := fsio.NewOS(dir)
	var fsys fsio.FileSystem = plain
	var tr *tracer
	var tfs *traceFS
	if traced {
		tr = newTracer()
		tfs = newTraceFS(plain, tr)
		fsys = tfs
	}
	fmt.Println("ready")
	in := bufio.NewReader(os.Stdin)
	if line, err := in.ReadString('\n'); err != nil || line != "go\n" {
		return 1
	}
	var r ckptResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for g := 0; g == 0 || time.Now().Before(deadline); g++ {
		name := fmt.Sprintf("g%d.sion", g)
		ph := tr.begin("core.checkpoint_write", 0, int64(g))
		done := tr.enter(ph)
		wc := writeDataset(fsys, name, d, pl)
		done()
		tr.end(ph)
		ph = tr.begin("core.restart_read", 0, int64(g))
		done = tr.enter(ph)
		rc := readDataset(fsys, name, d, pl)
		done()
		tr.end(ph)
		for _, pn := range sion.PhysicalNames(name, d.nfiles) {
			_ = plain.Remove(pn) // a leftover generation only costs disk space; the run dir is removed at exit
		}
		var lats []time.Duration
		for _, c := range []cycle{wc, rc} {
			if c.err != nil && r.Err == "" {
				r.Err = c.err.Error()
			}
			r.Ops += c.ops
			r.Fails += c.fails
			r.Bytes += c.bytes
			lats = append(lats, c.lats...)
		}
		good := 0
		for _, l := range lats {
			if l <= ckptSLO {
				good++
			}
		}
		readTime := rc.open + rc.maxIO + rc.close
		r.GoodRate = append(r.GoodRate, float64(good)/(wc.wall+readTime).Seconds())
		r.LatP50Ms = append(r.LatP50Ms, durQuantileMs(lats, 0.5))
		r.LatP99Ms = append(r.LatP99Ms, durQuantileMs(lats, 0.99))
		r.WriteGBps = append(r.WriteGBps, float64(wc.bytes)/wc.wall.Seconds()/1e9)
		r.ReadGBps = append(r.ReadGBps, float64(rc.bytes)/readTime.Seconds()/1e9)
		if r.Err != "" {
			break
		}
	}
	if tfs != nil {
		r.IO = tfs.io.snap()
	}
	out, _ := json.Marshal(r)
	fmt.Println(string(out))
	_, _ = io.Copy(io.Discard, in) // stay alive for the parent's final /proc reading
	if traced {
		if err := tr.writeFile(traceOut, map[string]any{"worker": "checkpoint", "seed": seed}); err != nil {
			fmt.Fprintln(os.Stderr, "checkpoint worker: writing trace:", err)
		}
	}
	return 0
}

// ckptSeqs are the ladder's sequences for the checkpoint: the restart's
// record reads, ranks in seeded order.
func ckptSeqs(e *env, w *workload) (cold, warm []req) {
	rng := rand.New(rand.NewSource(e.seed))
	var all []req
	for _, rank := range rng.Perm(w.data.ranks) {
		var off int64
		for _, n := range w.data.records(e.seed, rank) {
			all = append(all, req{rank, off, n})
			off += n
		}
	}
	return prefix(all, coldBytes), prefix(all, warmBytes)
}
