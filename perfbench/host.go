package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprint identifies the host and the code a report was measured
// on, so that numbers from different machines are never compared as if
// they were one.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		f.CPU, f.NProc, f.GOMAXPROCS, f.Go, f.Commit)
}

// hostFingerprint stamps the report. root is the repository checkout:
// its git HEAD names the commit when there is one, and otherwise a
// digest of its Go sources does.
func hostFingerprint(root string) fingerprint {
	f := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if fh, err := os.Open("/proc/cpuinfo"); err == nil {
		f.CPU = cpuModel(fh)
		fh.Close()
	}
	if c, ok := gitCommit(root); ok {
		f.Commit = c
	} else if d, err := sourceDigest(root); err == nil {
		f.Commit = "tree-" + d
	} else {
		f.Commit = "unknown"
	}
	return f
}

// cpuModel returns the first "model name" in /proc/cpuinfo text.
func cpuModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD in root/.git without running git: a detached
// HEAD holds the hash, otherwise the named ref is a loose file or a line
// of packed-refs.
func gitCommit(root string) (string, bool) {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "", false
	}
	h := strings.TrimSpace(string(head))
	ref, isRef := strings.CutPrefix(h, "ref: ")
	if !isRef {
		return h, h != ""
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b)), true
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash, true
		}
	}
	return "", false
}

// sourceDigest hashes every go.mod and .go file under root (path and
// content, in walk order), skipping VCS and build directories. It names
// the code when the checkout is not a git repository.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && !strings.HasSuffix(name, ".go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// processCPU returns the CPU time (user + system) the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtStats is a reading of the Go runtime's cumulative counters.
type rtStats struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
}

// rtReader reads rtStats without allocating, so it can bracket single
// calls in the traced pass.
type rtReader struct{ s []metrics.Sample }

func newRTReader() *rtReader {
	names := []string{
		"/gc/heap/allocs:bytes",
		"/gc/heap/allocs:objects",
		"/gc/heap/tiny/allocs:objects",
		"/gc/cycles/total:gc-cycles",
		"/cpu/classes/gc/total:cpu-seconds",
		"/cpu/classes/total:cpu-seconds",
	}
	r := &rtReader{s: make([]metrics.Sample, len(names))}
	for i, n := range names {
		r.s[i].Name = n
	}
	return r
}

func (r *rtReader) read() rtStats {
	metrics.Read(r.s)
	return rtStats{
		allocBytes: r.s[0].Value.Uint64(),
		allocObjs:  r.s[1].Value.Uint64() + r.s[2].Value.Uint64(),
		gcCycles:   r.s[3].Value.Uint64(),
		gcCPU:      r.s[4].Value.Float64(),
		totalCPU:   r.s[5].Value.Float64(),
	}
}

// sub returns the counters accumulated between b and a.
func (a rtStats) sub(b rtStats) rtStats {
	return rtStats{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}
