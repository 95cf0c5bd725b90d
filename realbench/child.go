package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// proc is a child process started by the benchmark. stop terminates and
// reaps it; stopAll does so for every child still running, on any exit
// path.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // loopback host:port for HTTP children
	log  *os.File
	done chan struct{} // closed once Wait has returned
	once sync.Once
}

var live = struct {
	sync.Mutex
	m map[*proc]struct{}
}{m: make(map[*proc]struct{})}

// start launches bin with args, its output going to a log file in dir.
// The child is killed if the benchmark dies without reaping it.
func start(name, bin, dir string, args []string, stdin io.Reader, stdout io.Writer) (*proc, error) {
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdin = stdin
	cmd.Stdout = logf
	if stdout != nil {
		cmd.Stdout = stdout
	}
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	live.Lock()
	live.m[p] = struct{}{}
	live.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a child we terminate carries no information
		close(p.done)
	}()
	return p, nil
}

// startServer runs an HTTP front end (sionserve or sionrouter) on a free
// loopback port and waits until /healthz answers 200.
func startServer(name, bin, dir string, args ...string) (*proc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	p, err := start(name, bin, dir, append([]string{"-addr", addr, "-slow-ms", "0"}, args...), nil, nil)
	if err != nil {
		return nil, err
	}
	p.addr = addr
	if err := p.waitHealthy(30 * time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

func (p *proc) waitHealthy(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy (log: %s)", p.name, p.tail())
		default:
		}
		if resp, err := c.Get("http://" + p.addr + "/healthz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v (log: %s)", p.name, timeout, p.tail())
}

// tail returns the end of the child's log for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the child has been reaped. It is safe to call twice.
func (p *proc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
		live.Lock()
		delete(live.m, p)
		live.Unlock()
	})
}

// stopAll stops every child still running.
func stopAll() {
	live.Lock()
	ps := make([]*proc, 0, len(live.m))
	for p := range live.m {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// usage is a child's CPU time and peak resident set size.
type usage struct {
	cpuS  float64 // user+sys seconds
	hwmMB float64 // VmHWM
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clkTck = 100

// procUsage reads the child's CPU time from /proc/<pid>/stat and its
// VmHWM from /proc/<pid>/status.
func procUsage(pid int) (usage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return usage{}, err
	}
	// Fields after the parenthesized command: state is field 3, so utime
	// (field 14) and stime (15) are at indexes 11 and 12.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return usage{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return usage{}, err
	}
	u := usage{cpuS: float64(ut+st) / clkTck}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return usage{}, err
	}
	sc := bufio.NewScanner(strings.NewReader(string(status)))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return usage{}, err
			}
			u.hwmMB = kb / 1024
		}
	}
	return u, nil
}

func (p *proc) usage() (usage, error) { return procUsage(p.cmd.Process.Pid) }

// client is an HTTP client limited to conns loopback connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}, Timeout: 60 * time.Second}
}

// getResult is one window request's outcome.
type getResult struct {
	ttfb, lat time.Duration
	got       int64
	ok        bool // 200, Content-Length == n, exactly n body bytes
}

// getWindow fetches n bytes of rank at off into buf[:n]. Timing stops
// when the body is complete; the caller verifies the bytes afterwards.
func getWindow(c *http.Client, addr string, rank int, off, n int64, buf []byte) getResult {
	url := "http://" + addr + "/rank/" + strconv.Itoa(rank) + "?off=" + strconv.FormatInt(off, 10) + "&n=" + strconv.FormatInt(n, 10)
	t := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return getResult{lat: time.Since(t)}
	}
	defer resp.Body.Close()
	r := getResult{ttfb: time.Since(t)}
	got, err := io.ReadFull(resp.Body, buf[:n])
	r.got = int64(got)
	extra, _ := io.Copy(io.Discard, resp.Body)
	r.lat = time.Since(t)
	r.ok = err == nil && extra == 0 && resp.StatusCode == http.StatusOK && resp.ContentLength == n
	return r
}

// getJSON decodes the JSON body of GET url into v.
func getJSON(addr, path string, v any) error {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape is one reading of a front end's public counters.
type scrape struct {
	serve serve.Stats // sionserve /stats, or sionrouter's sum over its nodes
	prom  map[string]float64
}

func scrapeServer(addr string, router bool, metrics bool) (scrape, error) {
	var s scrape
	if router {
		var cs cluster.Stats
		if err := getJSON(addr, "/stats", &cs); err != nil {
			return s, err
		}
		s.serve = cs.Serve
	} else if err := getJSON(addr, "/stats", &s.serve); err != nil {
		return s, err
	}
	if !metrics {
		return s, nil
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	s.prom, err = parseProm(resp.Body)
	return s, err
}

// parseProm sums Prometheus text samples by metric name, and also by
// name{op="..."} for samples carrying an op label.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels := line[:sp], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name, labels = name[:i], name[i:]
		}
		out[name] += v
		if i := strings.Index(labels, `op="`); i >= 0 {
			op := labels[i+4:]
			op = op[:strings.IndexByte(op, '"')]
			out[name+`{op="`+op+`"}`] += v
		}
	}
	return out, sc.Err()
}
