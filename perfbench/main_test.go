package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newReport() (*report, *bytes.Buffer) {
	var log bytes.Buffer
	return &report{vals: map[string]metricVal{}, log: &log}, &log
}

func TestReportCountsFailures(t *testing.T) {
	r, log := newReport()
	r.ok(true, "fine")
	r.ok(false, "broke %d", 7)
	if r.attempted != 2 || r.failed != 1 || r.errorFrac() != 0.5 {
		t.Fatalf("attempted=%d failed=%d frac=%v", r.attempted, r.failed, r.errorFrac())
	}
	if !strings.Contains(log.String(), "FAIL: broke 7") {
		t.Fatalf("log = %q", log.String())
	}
}

func TestReportResultSelectsSpecMetrics(t *testing.T) {
	r, _ := newReport()
	r.ok(true, "")
	r.set("run_s", "s", 1.25, 3)
	r.set("extra", "s", 9, 1)
	res, err := r.result([]specMetric{{Name: "run_s", Unit: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"run_s":{"value":1.25,"unit":"s"}}}`
	if string(b) != want {
		t.Fatalf("result line\n got %s\nwant %s", b, want)
	}
	if _, err := r.result([]specMetric{{Name: "missing", Unit: "s"}}); err == nil {
		t.Error("a metric that was not measured was accepted")
	}
	if _, err := r.result([]specMetric{{Name: "run_s", Unit: "ms"}}); err == nil {
		t.Error("a unit mismatch was accepted")
	}
}

func TestCheckOutput(t *testing.T) {
	const helloSHA = "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824"
	e := &env{seed: defaultSeed, golden: map[string]string{"k": helloSHA}, digests: map[string]string{}}
	e.rep, _ = newReport()
	e.checkOutput("k", []byte("hello"))
	e.checkOutput("k", []byte("hello"))
	if e.rep.failed != 0 || e.rep.attempted != 2 {
		t.Fatalf("golden match: attempted=%d failed=%d", e.rep.attempted, e.rep.failed)
	}
	e.checkOutput("k", []byte("hello!"))
	if e.rep.failed != 1 {
		t.Fatal("output that changed between passes was accepted")
	}

	// Another seed has no golden digest: only repeatability is checked.
	o := &env{seed: 99, golden: map[string]string{"k": helloSHA}, digests: map[string]string{}}
	o.rep, _ = newReport()
	o.checkOutput("k", []byte("other"))
	if o.rep.failed != 0 || o.rep.attempted != 0 {
		t.Fatalf("non-default seed: attempted=%d failed=%d", o.rep.attempted, o.rep.failed)
	}
}

func TestGoldenCoversEveryOutput(t *testing.T) {
	var golden map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"figures.fig4", "figures.fig6", "campus.table", "fleet.kafka", "fleet.mqtt"} {
		if len(golden[k]) != 64 {
			t.Errorf("golden digest for %s = %q", k, golden[k])
		}
	}
}

func TestServerDurations(t *testing.T) {
	expo := []byte(`# HELP steelnetd_http_request_duration_ns HTTP request wall latency, nanoseconds.
steelnetd_http_request_duration_ns_bucket{route="/metrics",le="1e+06"} 3
steelnetd_http_request_duration_ns_sum{route="/metrics"} 1.5e+06
steelnetd_http_request_duration_ns_count{route="/metrics"} 3
steelnetd_http_request_duration_ns_sum{route="/runs/{id}/history"} 400
steelnetd_http_request_duration_ns_count{route="/runs/{id}/history"} 2
steelnetd_hub_subscribers 1
`)
	sums, counts := map[string]float64{}, map[string]float64{}
	serverDurations(expo, sums, counts)
	serverDurations(expo, sums, counts)
	if sums["/metrics"] != 3e6 || counts["/metrics"] != 6 {
		t.Errorf("/metrics: sum=%v count=%v", sums["/metrics"], counts["/metrics"])
	}
	if sums["/runs/{id}/history"] != 800 || counts["/runs/{id}/history"] != 4 {
		t.Errorf("history: sum=%v count=%v", sums["/runs/{id}/history"], counts["/runs/{id}/history"])
	}
	if len(sums) != 2 {
		t.Errorf("parsed routes %v", sums)
	}
}

func TestReadSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(path, []byte(`{"end_to_end":[{"name":"run_s","unit":"s","better":"lower","bound":0.1}],
		"per_layer":[{"name":"events","unit":"count","better":"lower"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := readSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.EndToEnd) != 1 || s.EndToEnd[0].Name != "run_s" || s.PerLayer[0].Unit != "count" {
		t.Fatalf("spec = %+v", s)
	}
	if _, err := readSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing spec accepted")
	}
}

func TestRunRejectsBadUsage(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "campus", "--trace", "2"},
		{"--workload", "campus", "--seconds", "0"},
	} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	if out.Len() != 0 {
		t.Errorf("usage errors printed a result: %q", out.String())
	}
}
