package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, wall-clock start and end
// relative to the tracer's origin, the span that caused it (-1 for a
// root) and the lane (goroutine slot) it ran on.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	lane       int
}

// tracer keeps spans in memory for the traced pass. Untraced passes
// never build one: they call the program's own entry points directly.
// It is safe for concurrent use by sweep workers.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent, lane int) int {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, lane: lane})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	return now - t.spans[id].start
}

// durations returns the durations of every closed span named name, in
// the order the spans were opened.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// total sums the durations of every span named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(name) {
		d += x
	}
	return d
}

// layerTime is one row of the self-time table.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; children that
// overlap each other (parallel sweep cells) are counted once.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	rows := map[string]*layerTime{}
	var order []string
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end < 0 {
				continue
			}
			iv = append(iv, [2]time.Duration{max(cs.start, s.start), min(cs.end, s.end)})
		}
		r, ok := rows[s.name]
		if !ok {
			r = &layerTime{name: s.name}
			rows[s.name] = r
			order = append(order, s.name)
		}
		d := s.end - s.start
		r.count++
		r.total += d
		r.self += d - covered(iv)
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *rows[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curS, curE := time.Duration(0), time.Duration(-1)
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
			continue
		}
		curE = max(curE, x[1])
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeSelfTimes prints the per-layer self-time table.
func writeSelfTimes(w io.Writer, rows []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.name, r.count,
			float64(r.total)/1e6, float64(r.self)/1e6)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, loadable in
// Perfetto: one complete ("X") event per span, lanes as threads.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		evs = append(evs, event{Name: s.name, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.lane, Args: map[string]int{"id": i, "parent": s.parent}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// lanes hands out goroutine slots so that parallel sweep cells land on
// distinct trace threads. Slot 0 is the benchmark's main goroutine.
type lanes chan int

func newLanes(workers int) lanes {
	l := make(lanes, workers)
	for i := 1; i <= workers; i++ {
		l <- i
	}
	return l
}
