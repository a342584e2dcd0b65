// Command perfbench is steelnet's end-to-end benchmark. One invocation
// runs one workload for a fixed wall-clock budget, checks every output
// it produces, prints a human-readable report, and ends with one JSON
// line holding the metrics BENCHMARK.json names:
//
//	perfbench --workload figures|campus|fleet --seed N --seconds S --trace 0|1
//
// With --trace 0 the workload runs untraced and the JSON carries the
// end-to-end metrics. With --trace 1 it also runs a traced pass, which
// times each layer from outside by putting spans around calls into the
// layer's public functions, and the JSON carries the per-layer metrics.
// The traced pass writes its spans once, at exit, as Chrome/Perfetto
// JSON. See README.md in this directory.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed whose outputs are pinned by golden digests.
// Any other seed is checked by invariants instead.
const defaultSeed = 1

//go:embed golden.json
var goldenJSON []byte

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(e *env) error
}

var workloads = []workload{
	{"figures", runFigures},
	{"campus", runCampus},
	{"fleet", runFleet},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: figures, campus or fleet")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Int("seconds", 10, "wall-clock budget of the measurement")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass as well")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload figures|campus|fleet --seed N --seconds S --trace 0|1")
		return 2
	}
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintf(stderr, "perfbench: golden digests: %v\n", err)
		return 2
	}

	e := &env{
		seed: *seed, budget: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(), golden: golden, log: stderr,
		rep: &report{vals: map[string]metricVal{}, log: stderr},
		rt:  newRTReader(), digests: map[string]string{},
	}
	if *trace == 1 {
		e.tr = newTracer()
	}
	fmt.Fprintln(stdout, hostFingerprint("."))
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%d trace=%d workers=%d\n",
		wl.name, *seed, *seconds, *trace, e.workers)
	e.start = time.Now()
	if err := wl.run(e); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if rss, err := peakRSSMB(); e.rep.ok(err == nil, "peak RSS: %v", err) {
		e.rep.set("peak_rss_mb", "MB", rss, 1)
	}
	e.rep.set("error_frac", "ratio", e.rep.errorFrac(), e.rep.attempted)

	if e.tr != nil {
		path := filepath.Join(".bench_build", "perfbench-trace-"+wl.name+".json")
		if err := writeTraceFile(path, e.tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nper-layer self time (traced pass; Chrome trace: %s)\n", path)
		writeSelfTimes(stdout, selfTimes(e.tr.spans))
	}
	fmt.Fprintln(stdout)
	e.rep.write(stdout)

	want := spec.EndToEnd
	if e.tr != nil {
		want = spec.PerLayer
	}
	res, err := e.rep.result(want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if e.rep.failed > 0 {
		return 1
	}
	return 0
}

// env is what a workload gets: its inputs, its budget, and where its
// results go.
type env struct {
	seed    uint64
	budget  time.Duration
	start   time.Time
	workers int
	tr      *tracer // nil on untraced runs
	rt      *rtReader
	rep     *report
	golden  map[string]string
	digests map[string]string // first digest per output in this run
	log     io.Writer
}

// more reports whether another pass estimated to take est still fits
// the budget; a workload always gets its first pass.
func (e *env) more(passes int, est time.Duration) bool {
	return passes == 0 || time.Since(e.start)+est <= e.budget
}

// checkOutput checks one output's SHA-256: against the committed digest
// for the default seed, and, for every seed, against the first digest of
// the same output in this run (every pass and the traced pass must
// reproduce the same bytes).
func (e *env) checkOutput(key string, data []byte) {
	sum := sha256.Sum256(data)
	d := hex.EncodeToString(sum[:])
	if first, seen := e.digests[key]; seen {
		e.rep.ok(d == first, "%s: output changed between passes (%s, first %s)", key, d, first)
		return
	}
	e.digests[key] = d
	if e.seed == defaultSeed {
		e.rep.ok(d == e.golden[key], "%s: digest %s, want %s", key, d, e.golden[key])
	}
}

// phaseStats accumulates runtime counters and process CPU time over the
// untraced passes.
type phaseStats struct {
	rtStats
	cpu []time.Duration
}

// measure runs fn and adds its runtime counters and CPU time to ps.
func (e *env) measure(ps *phaseStats, fn func()) {
	before, cpu := e.rt.read(), processCPU()
	fn()
	ps.cpu = append(ps.cpu, processCPU()-cpu)
	ps.rtStats = ps.rtStats.add(e.rt.read().sub(before))
}

// setRuntime reports the process CPU time (user + system) of the median
// pass, and the garbage collector's share of CPU, the heap allocated and
// the GC cycles per pass.
func (e *env) setRuntime(ps phaseStats) {
	passes := len(ps.cpu)
	if passes == 0 {
		return
	}
	n := float64(passes)
	frac := 0.0
	if ps.totalCPU > 0 {
		frac = ps.gcCPU / ps.totalCPU
	}
	e.rep.set("cpu_s", "s", median(secs(ps.cpu)), passes)
	e.rep.set("gc.cpu_frac", "ratio", frac, passes)
	e.rep.set("alloc_mb", "MB", float64(ps.allocBytes)/1e6/n, passes)
	e.rep.set("gc.cycles", "count", float64(ps.gcCycles)/n, passes)
}

// setRoles reports the per-layer metrics every workload shares, by the
// role the layer plays around the simulation: building harnesses,
// advancing engines, and collecting or publishing what they computed.
func (e *env) setRoles(build, advance, collect time.Duration, events uint64) {
	e.rep.set("build_s", "s", build.Seconds(), 1)
	e.rep.set("advance_s", "s", advance.Seconds(), 1)
	e.rep.set("collect_s", "s", collect.Seconds(), 1)
	e.rep.set("events", "count", float64(events), 1)
	e.rep.set("ns_per_event", "ns", float64(advance.Nanoseconds())/float64(events), 1)
}

func (a rtStats) add(b rtStats) rtStats {
	return rtStats{
		allocBytes: a.allocBytes + b.allocBytes,
		allocObjs:  a.allocObjs + b.allocObjs,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}

// metricVal is one reported metric; n is its sample count.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report collects metrics and counts attempted and failed operations.
type report struct {
	vals              map[string]metricVal
	attempted, failed int
	log               io.Writer
}

func (r *report) set(name, unit string, v float64, n int) {
	r.vals[name] = metricVal{Value: v, Unit: unit, n: n}
}

// ok counts one attempted operation and, unless cond holds, one failure,
// logging the reason. It returns cond.
func (r *report) ok(cond bool, format string, args ...any) bool {
	r.attempted++
	if !cond {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: FAIL: "+format+"\n", args...)
	}
	return cond
}

func (r *report) errorFrac() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// write prints every metric with its unit and sample count.
func (r *report) write(w io.Writer) {
	names := make([]string, 0, len(r.vals))
	for n := range r.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		v := r.vals[n]
		fmt.Fprintf(w, "%-36s %16.6g %-6s n=%d\n", n, v.Value, v.Unit, v.n)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d\n", r.attempted, r.failed)
}

// benchResult is the final JSON line.
type benchResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// result selects the metrics BENCHMARK.json names; each must have been
// measured, in the unit the file gives.
func (r *report) result(want []specMetric) (benchResult, error) {
	res := benchResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricVal{}}
	for _, m := range want {
		v, ok := r.vals[m.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v.Unit != m.Unit {
			return res, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	return res, nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, errors.New(path + ": no metrics listed")
	}
	return s, nil
}

func writeTraceFile(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
