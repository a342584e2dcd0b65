package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nflags\t: fpu\n"
	if got := cpuModel(strings.NewReader(info)); got != "Intel(R) Xeon(R) Processor" {
		t.Fatalf("cpuModel = %q", got)
	}
	if got := cpuModel(strings.NewReader("processor : 0\n")); got != "unknown" {
		t.Fatalf("no model line: %q", got)
	}
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGitCommit(t *testing.T) {
	const hash = "c6b8401d1d765d7ffd29212b8fca131998912b58"
	for _, tc := range []struct {
		name  string
		files map[string]string
	}{
		{"loose ref", map[string]string{".git/HEAD": "ref: refs/heads/main\n", ".git/refs/heads/main": hash + "\n"}},
		{"packed ref", map[string]string{".git/HEAD": "ref: refs/heads/main\n",
			".git/packed-refs": "# pack-refs with: peeled\n" + hash + " refs/heads/main\n"}},
		{"detached", map[string]string{".git/HEAD": hash + "\n"}},
	} {
		dir := t.TempDir()
		for p, d := range tc.files {
			writeFile(t, filepath.Join(dir, p), d)
		}
		got, ok := gitCommit(dir)
		if !ok || got != hash {
			t.Errorf("%s: gitCommit = %q, %v", tc.name, got, ok)
		}
	}
	if _, ok := gitCommit(t.TempDir()); ok {
		t.Error("a directory without .git resolved a commit")
	}
}

func TestSourceDigest(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module x\n")
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a\n")
	d1, err := sourceDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Build output, VCS data and non-Go files do not name the code.
	writeFile(t, filepath.Join(dir, ".bench_build", "x.go"), "package x\n")
	writeFile(t, filepath.Join(dir, "notes.txt"), "hello\n")
	if d2, _ := sourceDigest(dir); d2 != d1 {
		t.Fatalf("digest moved on ignored files: %s → %s", d1, d2)
	}
	writeFile(t, filepath.Join(dir, "a", "a.go"), "package a // edited\n")
	if d3, _ := sourceDigest(dir); d3 == d1 {
		t.Fatal("digest did not change with the source")
	}
}

func TestHostFingerprint(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module x\n")
	f := hostFingerprint(dir)
	if f.NProc != runtime.NumCPU() || f.GOMAXPROCS != runtime.GOMAXPROCS(0) || f.Go != runtime.Version() {
		t.Fatalf("fingerprint = %+v", f)
	}
	if !strings.HasPrefix(f.Commit, "tree-") {
		t.Fatalf("non-git checkout commit = %q, want a tree digest", f.Commit)
	}
	s := f.String()
	for _, want := range []string{"cpu=", "nproc=", "GOMAXPROCS=", "go=", "commit=tree-"} {
		if !strings.Contains(s, want) {
			t.Errorf("%q lacks %q", s, want)
		}
	}
}

func TestRTReaderDeltas(t *testing.T) {
	r := newRTReader()
	before := r.read()
	sink = make([]byte, 1<<20)
	d := r.read().sub(before)
	if d.allocBytes < 1<<20 || d.allocObjs < 1 {
		t.Fatalf("a 1 MiB allocation read as %+v", d)
	}
}

var sink []byte
