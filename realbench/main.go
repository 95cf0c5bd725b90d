// Command realbench is the repository's end-to-end benchmark. It pushes
// real bytes through the real stack on the OS file system (fsio.NewOS):
// core.ParOpen writes and restarts, the serve block cache, the cluster
// ring, and the shipped sionserve and sionrouter binaries driven over
// loopback HTTP as child processes. It times calls into each layer's
// public functions from outside and changes no library code.
//
// Usage (from the repository root; realbench/run.sh builds everything
// first and is the normal entry point):
//
//	bash realbench/run.sh --workload checkpoint|scan-cold|zipf-hot \
//	    [--seed N] [--seconds S] [--trace 0|1]
//
// --seed selects the generated inputs (payload bytes, record sizes, rank
// permutations, request and arrival sequences); the same seed gives the
// same inputs. Seeds 1 to 10 were used while tuning the benchmark; check
// a performance claim on a held-out seed as well, e.g. --seed 9001.
//
// --trace 0 prints the end-to-end metrics. --trace 1 is a separate run
// whose end-to-end numbers are discarded: it records spans (written to
// .bench_build/trace-<workload>-<seed>.jsonl) and prints the per-layer
// metrics, taken from the same child-process run plus an in-process
// ladder that replays the workload's requests layer by layer (raw fsio
// floor, core, serve cold and warm, cluster cold and warm, HTTP).
//
// Every output begins with a run stamp line (machine, toolchain, data
// set size against the LLC and the cache budgets, seed, commit); the last
// line is the result object. Any failed, short or byte-mismatched
// operation makes the run exit non-zero after printing its metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one benchmark run.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding sionserve, sionrouter and realbench
	work     string // this run's scratch directory, removed at exit
	traceOut string // where a traced run writes its spans
	tr       *tracer
	pl       *payload
	stamp    map[string]any

	metrics           map[string]float64 // by name; units come from endToEnd and perLayer
	attempted, failed int64
	// retries and giveups are resil's counts on the OS backend; any is the
	// machine faulting, not the program, and voids the run.
	retries, giveups int64
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// count adds operations to the run's attempted and failed totals.
func (e *env) count(attempted, failed int64) {
	e.attempted += attempted
	e.failed += failed
}

// workload is one traffic mix.
type workload struct {
	data  dataset
	cache int64                                        // per-server cache budget of the measured run
	run   func(e *env, w *workload) error              // the measured child-process run
	seqs  func(e *env, w *workload) (cold, warm []req) // the ladder's request sequences
}

var workloads = map[string]*workload{
	"checkpoint": {data: ckptData, cache: 16 << 20, run: runCheckpoint, seqs: ckptSeqs},
	"scan-cold":  {data: scanData, cache: 16 << 20, run: runScan, seqs: scanSeqs},
	"zipf-hot":   {data: zipfData, cache: 64 << 20, run: runZipf, seqs: zipfSeqs},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "checkpoint, scan-cold or zipf-hot")
	seed := flag.Int64("seed", 1, "input seed (use one not used in tuning, e.g. 9001, to check a claim)")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 = traced per-layer run")
	bin := flag.String("bin", ".bench_build/bin", "directory with the built sionserve, sionrouter and realbench binaries")
	workBase := flag.String("work", ".bench_build/work", "parent of the run's scratch directory")
	child := flag.String("child", "", "internal: run as the checkpoint worker in this directory")
	traceOut := flag.String("trace-out", "", "internal: the checkpoint worker's trace file")
	flag.Parse()
	if *child != "" {
		return checkpointChild(*child, *seed, *seconds, *traceOut)
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "usage: realbench --workload checkpoint|scan-cold|zipf-hot [--seed N] [--seconds S] [--trace 0|1]")
		return 2
	}
	if err := os.MkdirAll(*workBase, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(*workBase, *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 1
	}
	defer os.RemoveAll(work)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.RemoveAll(work)
		os.Exit(130)
	}()
	defer stopAll()

	e := &env{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traceOn == 1,
		bin: *bin, work: work, pl: newPayload(*seed), metrics: make(map[string]float64),
		traceOut: filepath.Join(filepath.Dir(filepath.Clean(*workBase)), fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed)),
	}
	if e.trace {
		e.tr = newTracer()
	}
	e.stamp = runStamp(e, w)
	stampLine, _ := json.Marshal(map[string]any{"stamp": e.stamp})
	fmt.Println(string(stampLine))

	if err := w.run(e, w); err != nil {
		fmt.Fprintln(os.Stderr, "realbench:", err)
		return 1
	}
	if e.trace {
		if err := runLadder(e, w); err != nil {
			fmt.Fprintln(os.Stderr, "realbench: ladder:", err)
			return 1
		}
		e.set("fail_frac", float64(e.failed)/float64(max(e.attempted, 1)))
		if err := e.tr.writeFile(e.traceOut, e.stamp); err != nil {
			fmt.Fprintln(os.Stderr, "realbench: writing trace:", err)
		}
		printSelfTimes(e.tr)
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	res := result{Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metric)}
	var missing []string
	for _, m := range want {
		v, ok := e.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			continue
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	invalid := e.retries != 0 || e.giveups != 0
	if invalid {
		fmt.Fprintf(os.Stderr, "realbench: run invalid: %d retries, %d give-ups on the OS backend\n", e.retries, e.giveups)
	}
	res.Correct = e.failed == 0 && len(missing) == 0 && !invalid && e.attempted > 0
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if len(missing) > 0 {
		fmt.Fprintln(os.Stderr, "realbench: metrics not measured (absent or not finite):", missing)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// printSelfTimes reports each span name's self time on standard error.
func printSelfTimes(t *tracer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "self %-28s %10.4f s\n", n, self[n].Seconds())
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_GBps", "GB/s"},
	{"read_GBps", "GB/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"max_rps_at_slo", "1/s"},
	{"cpu_s_per_GB", "s/GB"},
	{"peak_rss_MB", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
var perLayer = []metricDef{
	{"fsio.pread_GBps", "GB/s"}, {"fsio.pwrite_GBps", "GB/s"}, {"fsio.fsync_ms", "ms"},
	{"fsio.read_ops", "count"}, {"fsio.read_bytes", "B"}, {"fsio.read_busy_s", "s"},
	{"fsio.write_ops", "count"}, {"fsio.write_bytes", "B"}, {"fsio.write_busy_s", "s"},
	{"fsio.sync_ops", "count"}, {"fsio.sync_busy_s", "s"},
	{"core.paropen_write_ms", "ms"}, {"core.write_busy_s", "s"}, {"core.close_ms", "ms"},
	{"core.paropen_read_ms", "ms"}, {"core.read_busy_s", "s"},
	{"core.write_floor_ratio", "ratio"}, {"core.read_floor_ratio", "ratio"},
	{"core.write_amplification", "ratio"}, {"core.writes_per_MB", "1/MB"}, {"core.rank_skew_ms", "ms"},
	{"serve.cold_GBps", "GB/s"}, {"serve.warm_GBps", "GB/s"},
	{"serve.cold_floor_ratio", "ratio"}, {"serve.warm_floor_ratio", "ratio"},
	{"serve.hit_ratio", "ratio"}, {"serve.flight_hits", "count"}, {"serve.evictions_per_MB", "1/MB"},
	{"serve.backend_reads_per_window", "count"}, {"serve.blocks_per_span", "count"},
	{"serve.backend_bytes_per_served_byte", "ratio"}, {"serve.alloc_bytes_per_served_byte", "ratio"},
	{"serve.allocs_per_MB", "1/MB"}, {"serve.read_p50_us", "us"}, {"serve.read_p99_us", "us"},
	{"cluster.cold_GBps", "GB/s"}, {"cluster.warm_GBps", "GB/s"}, {"cluster.warm_vs_serve_warm", "ratio"},
	{"cluster.backend_reads_per_window", "count"}, {"cluster.requests_per_window", "count"},
	{"cluster.peer_fills", "count"}, {"cluster.failovers", "count"}, {"cluster.allocs_per_block", "count"},
	{"resil.retries", "count"}, {"resil.giveups", "count"},
	{"http.sionserve.req_overhead_us", "us"}, {"http.sionrouter.req_overhead_us", "us"},
	{"http.ttfb_ms_p50", "ms"}, {"bench.gen_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "frac"}, {"fail_frac", "frac"},
}

// since is seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
