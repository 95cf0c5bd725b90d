package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runStamp records what makes numbers from different runs comparable or
// not: the machine, the toolchain, the data set against the LLC and the
// cache budgets, the seed and the source revision.
func runStamp(e *env, w *workload) map[string]any {
	llc := llcBytes()
	data := w.data.total()
	st := map[string]any{
		"workload":                 e.workload,
		"seed":                     e.seed,
		"seconds":                  e.seconds,
		"trace":                    e.trace,
		"nproc":                    runtime.NumCPU(),
		"gomaxprocs":               runtime.GOMAXPROCS(0),
		"go_version":               runtime.Version(),
		"llc_bytes":                llc,
		"fs_type":                  fsType(e.work),
		"page_cache":               "warm: the OS page cache is not dropped, so cold means cold in the program's own caches",
		"data_bytes":               data,
		"cache_bytes_per_server":   w.cache,
		"data_vs_cache_per_server": float64(data) / float64(w.cache),
		"commit":                   commit(),
		"time":                     time.Now().UTC().Format(time.RFC3339),
	}
	if llc > 0 {
		st["data_vs_llc"] = float64(data) / float64(llc)
	}
	return st
}

// llcBytes reads the size of the last cache level of CPU 0 from sysfs.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		b, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683e:
		return "btrfs"
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// commit is the git commit of the working directory or, outside a git
// checkout, a digest of the Go sources and module files under it.
func commit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// durQuantileMs is quantile over durations, in milliseconds.
func durQuantileMs(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / 1e6
	}
	return quantile(xs, q)
}
