package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/simfs"
)

// small is a data set small enough for unit tests.
var small = dataset{ranks: 4, nfiles: 2, rankBytes: 2 << 20, recMin: 4 << 10, recMax: 256 << 10, chunk: 512 << 10}

func testEnv(t *testing.T) *env {
	t.Helper()
	return &env{seed: 7, pl: newPayload(7), work: t.TempDir(), metrics: make(map[string]float64)}
}

// The decorator must not change what the layers above it see: the
// capability descriptor and the block size drive serve's span defaults
// and core's geometry.
func TestTraceFSKeepsCapabilities(t *testing.T) {
	prof, ok := simfs.ObjProfileByName("s3")
	if !ok {
		t.Fatal("no s3 object-store profile")
	}
	dir := t.TempDir()
	for name, inner := range map[string]fsio.FileSystem{
		"os":       fsio.NewOS(dir),
		"objstore": simfs.NewObjStore(prof).Wrap(fsio.NewOS(dir), nil),
	} {
		traced := newTraceFS(inner, newTracer())
		if got, want := fsio.CapabilitiesOf(traced), fsio.CapabilitiesOf(inner); got != want {
			t.Errorf("%s: capabilities through the decorator %+v, want %+v", name, got, want)
		}
		if got, want := traced.BlockSize("x.sion"), inner.BlockSize("x.sion"); got != want {
			t.Errorf("%s: block size through the decorator %d, want %d", name, got, want)
		}
	}
}

// Tracing must not change what the program does: a traced and an
// untraced in-process replay of one seed see identical serve and cluster
// counters.
func TestTracedReplayCountersMatch(t *testing.T) {
	e := testEnv(t)
	plain := fsio.NewOS(e.work)
	const name = "small.sion"
	c := writeDataset(plain, name, small, e.pl)
	if c.err != nil || c.fails != 0 {
		t.Fatalf("writing the data set: %v, %d failed writes", c.err, c.fails)
	}
	if r := readDataset(plain, name, small, e.pl); r.err != nil || r.fails != 0 {
		t.Fatalf("restart read: %v, %d failed reads", r.err, r.fails)
	}
	w := &workload{data: small, cache: 256 << 10}
	cold, warm := ckptSeqs(e, w)
	traced := newTraceFS(plain, newTracer())
	for _, tc := range []struct {
		seq   []req
		cache int64
		warm  bool
	}{{cold, w.cache, false}, {warm, 8 << 20, true}} {
		sp, err := replayServe(e, plain, nil, name, tc.seq, tc.cache, tc.warm)
		if err != nil {
			t.Fatal(err)
		}
		st, err := replayServe(e, traced, traced.t, name, tc.seq, tc.cache, tc.warm)
		if err != nil {
			t.Fatal(err)
		}
		if sp.st != st.st || sp.spans != st.spans || sp.spanBlocks != st.spanBlocks {
			t.Errorf("serve counters differ under tracing:\nplain  %+v spans %v/%v\ntraced %+v spans %v/%v",
				sp.st, sp.spans, sp.spanBlocks, st.st, st.spans, st.spanBlocks)
		}
		cp, err := replayCluster(e, plain, nil, name, tc.seq, tc.cache, tc.warm)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := replayCluster(e, traced, traced.t, name, tc.seq, tc.cache, tc.warm)
		if err != nil {
			t.Fatal(err)
		}
		if cp.st.Requests != ct.st.Requests || cp.st.Failovers != ct.st.Failovers || cp.st.Serve != ct.st.Serve {
			t.Errorf("cluster counters differ under tracing:\nplain  %+v\ntraced %+v", cp.st, ct.st)
		}
		if sp.st.BackendReads == 0 && !tc.warm {
			t.Error("the cold replay read nothing from the backend")
		}
	}
	if e.failed != 0 {
		t.Errorf("%d of %d replayed reads failed verification", e.failed, e.attempted)
	}
}

func TestPayloadDetectsMisplacement(t *testing.T) {
	pl := newPayload(3)
	b := append([]byte(nil), pl.at(1, 4096, 8192)...)
	if !pl.verify(b, 1, 4096) {
		t.Fatal("payload does not verify in place")
	}
	for _, c := range []struct {
		rank int
		off  int64
	}{{1, 4096 + fsBlock}, {2, 4096}, {1, 4097}} {
		if pl.verify(b, c.rank, c.off) {
			t.Errorf("payload of rank 1 at 4096 verifies as rank %d at %d", c.rank, c.off)
		}
	}
	long := make([]byte, 3*patLen)
	for off := 0; off < len(long); off += 1 << 16 {
		copy(long[off:], pl.at(0, int64(off), min(1<<16, len(long)-off)))
	}
	if !pl.verify(long, 0, 0) {
		t.Error("a window longer than the pattern period does not verify")
	}
}

// buildBinaries builds the benchmark and both front ends into a
// temporary directory.
func buildBinaries(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for pkg, out := range map[string]string{".": "realbench", "repro/cmd/sionserve": "sionserve", "repro/cmd/sionrouter": "sionrouter"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, out), pkg)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, b)
		}
	}
	return bin
}

// processesUnder lists the PIDs of processes whose executable lies in dir.
func processesUnder(dir string) []int {
	var pids []int
	ents, _ := os.ReadDir("/proc")
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err == nil && strings.HasPrefix(exe, dir) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// A full run and an interrupted run both leave no child process and no
// scratch directory behind, and the servers' ServedBytes reconcile with
// the bytes the client received (a mismatch would fail the run).
func TestHarnessLeavesNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	bin := buildBinaries(t)
	work := t.TempDir()
	run := func(seconds string) *exec.Cmd {
		cmd := exec.Command(filepath.Join(bin, "realbench"), "--workload", "zipf-hot", "--seed", "5",
			"--seconds", seconds, "--trace", "0", "-bin", bin, "-work", work)
		cmd.Dir = t.TempDir()
		return cmd
	}

	out, err := run("1").Output()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Failed != 0 {
		t.Fatalf("result %q: %v", lines[len(lines)-1], err)
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("metric %s missing", m.name)
		}
	}
	assertClean(t, bin, work)

	// Interrupt a run once its server is up.
	cmd := run("30")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Scan() // the stamp line is printed before any set-up
	deadline := time.Now().Add(30 * time.Second)
	for len(processesUnder(bin)) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if len(processesUnder(bin)) < 2 {
		t.Fatal("the server child never started")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("interrupted run exited with %v, want a non-zero status", err)
	}
	assertClean(t, bin, work)
}

func assertClean(t *testing.T, bin, work string) {
	t.Helper()
	if pids := processesUnder(bin); len(pids) != 0 {
		t.Errorf("processes left behind: %v", pids)
	}
	ents, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		t.Errorf("scratch left behind: %s", e.Name())
	}
}

// The metric lists realbench prints must be the ones BENCHMARK.json
// declares, with the same units, and every declared workload must exist.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []decl
	}{{"end_to_end", endToEnd, spec.EndToEnd}, {"per_layer", perLayer, spec.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: realbench has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: realbench %s (%s), BENCHMARK.json %s (%s)", c.what, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}
