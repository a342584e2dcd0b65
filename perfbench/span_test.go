package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const ms = time.Millisecond

func sp(name string, start, end time.Duration, parent int) span {
	return span{name: name, start: start * ms, end: end * ms, parent: parent}
}

func rowsByName(rows []layerTime) map[string]layerTime {
	m := map[string]layerTime{}
	for _, r := range rows {
		m[r.name] = r
	}
	return m
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		sp("run", 0, 100, -1),   // 0
		sp("step", 10, 30, 0),   // 1
		sp("sample", 30, 70, 0), // 2
		sp("inner", 40, 50, 2),  // 3: grandchild, not run's child
		sp("step", 80, 90, 0),   // 4
	}
	got := rowsByName(selfTimes(spans))
	want := map[string]struct {
		count       int
		total, self time.Duration
	}{
		"run":    {1, 100 * ms, 30 * ms},
		"step":   {2, 30 * ms, 30 * ms},
		"sample": {1, 40 * ms, 30 * ms},
		"inner":  {1, 10 * ms, 10 * ms},
	}
	for name, w := range want {
		r := got[name]
		if r.count != w.count || r.total != w.total || r.self != w.self {
			t.Errorf("%s: got count=%d total=%v self=%v, want %+v", name, r.count, r.total, r.self, w)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	// Two parallel sweep cells cover [10,60) ∪ [20,80) = [10,80): the
	// sweep's self time is 100 − 70, not 100 − 110 (which would go
	// negative).
	spans := []span{
		sp("sweep", 0, 100, -1),
		sp("cell", 10, 60, 0),
		sp("cell", 20, 80, 0),
	}
	got := rowsByName(selfTimes(spans))
	if s := got["sweep"].self; s != 30*ms {
		t.Fatalf("sweep self = %v, want 30ms", s)
	}
}

func TestSelfTimeSkipsOpenSpans(t *testing.T) {
	spans := []span{sp("done", 0, 10, -1), {name: "open", start: 0, end: -1, parent: -1}}
	rows := selfTimes(spans)
	if len(rows) != 1 || rows[0].name != "done" {
		t.Fatalf("rows = %+v", rows)
	}
}

func TestSelfTimesSortedBySelf(t *testing.T) {
	spans := []span{sp("small", 0, 1, -1), sp("big", 0, 50, -1), sp("mid", 0, 20, -1)}
	rows := selfTimes(spans)
	if rows[0].name != "big" || rows[1].name != "mid" || rows[2].name != "small" {
		t.Fatalf("order = %v %v %v", rows[0].name, rows[1].name, rows[2].name)
	}
}

func TestCoveredUnion(t *testing.T) {
	iv := [][2]time.Duration{{50, 60}, {0, 10}, {5, 20}, {30, 30}, {55, 70}}
	if got := covered(iv); got != 40 {
		t.Fatalf("covered = %v, want 40", got)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("covered(nil) = %v", got)
	}
}

func TestTracerSpansAndChromeExport(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 0)
	child := tr.begin("child", root, 1)
	if d := tr.end(child); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	tr.end(root)
	tr.begin("open", -1, 0) // never closed: not exported
	if n := len(tr.durations("child")); n != 1 {
		t.Fatalf("durations(child) has %d entries", n)
	}
	if tr.total("root") < tr.total("child") {
		t.Fatal("parent shorter than child")
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TID  int `json:"tid"`
			Args map[string]int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("exported %d events, want 2", len(doc.TraceEvents))
	}
	c := doc.TraceEvents[1]
	if c.Name != "child" || c.Ph != "X" || c.TID != 1 || c.Args["parent"] != root {
		t.Fatalf("child event = %+v", c)
	}
}

func TestWriteSelfTimes(t *testing.T) {
	var buf bytes.Buffer
	writeSelfTimes(&buf, []layerTime{{name: "obs.publish", count: 3, total: 2 * ms, self: ms}})
	out := buf.String()
	if !strings.Contains(out, "obs.publish") || !strings.Contains(out, "1.000") {
		t.Fatalf("table:\n%s", out)
	}
}
