package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/obs"
	"steelnet/internal/steelnetd"
	"steelnet/internal/tshist"
)

// Fleet workload shape: fleetRuns instaplc runs of the README
// quickstart spec, stepped by a gateway that lets nproc−1 of them run
// at once, while one SSE client reads the fleet stream and one
// open-loop scraper polls at scrapeRate requests per second.
const (
	fleetRuns     = 4
	fleetHorizon  = 3 * time.Second
	fleetSlice    = 10 * time.Millisecond
	fleetRules    = "loss:*>0.0->kafka:alerts"
	fleetSLO      = "latency:*<250us"
	scrapeRate    = 50
	scrapeTimeout = 10 * time.Second
	drainTimeout  = 30 * time.Second
)

// route is a gateway route: key is its metric-name segment and pattern
// the gateway's route label.
type route struct{ key, pattern string }

// scrapeRoutes are the scraper's targets, in cycle order.
var scrapeRoutes = []route{
	{"metrics", "/metrics"},
	{"run_metrics", "/runs/{id}/metrics"},
	{"history", "/runs/{id}/history"},
}

func fleetSpecs(seed uint64) []steelnetd.RunSpec {
	specs := make([]steelnetd.RunSpec, fleetRuns)
	for i := range specs {
		specs[i] = steelnetd.RunSpec{
			ID: "run-" + strconv.Itoa(i),
			Run: core.HeadlessConfig{Seed: seed + uint64(i), Horizon: fleetHorizon,
				Slice: fleetSlice, SLO: fleetSLO},
			Rules: fleetRules,
		}
	}
	return specs
}

// fleetObs accumulates the untraced rounds' raw samples.
type fleetObs struct {
	setup, walls       []time.Duration
	scrapeMS           []float64
	routeMS, routeB    map[string][]float64
	lateMS, postMS     []float64
	serverNS, serverN  map[string]float64
	slices             uint64
	published, dropped uint64
	evicted, queueHW   uint64
}

// runFleet serves a gateway on loopback, round after round, until the
// budget is spent. A traced run adds the serial per-layer pass.
func runFleet(e *env) error {
	specs := fleetSpecs(e.seed)
	o := &fleetObs{routeMS: map[string][]float64{}, routeB: map[string][]float64{},
		serverNS: map[string]float64{}, serverN: map[string]float64{}}
	var ps phaseStats
	var tracedPerSlice time.Duration
	for round := 0; e.more(round, lastOf(o.setup)+lastOf(o.walls)); round++ {
		runtime.GC()
		var err error
		e.measure(&ps, func() { err = fleetRound(e, specs, o) })
		if err != nil {
			return err
		}
		if e.tr != nil && round == 0 {
			if tracedPerSlice, err = tracedFleet(e, specs); err != nil {
				return err
			}
		}
	}
	wall := median(secs(o.walls))
	e.rep.set("setup_s", "s", median(secs(o.setup)), len(o.setup))
	e.rep.set("run_s", "s", wall, len(o.walls))
	e.rep.set("sim_x", "x", float64(fleetRuns)*fleetHorizon.Seconds()/wall, len(o.walls))
	n := len(o.scrapeMS)
	e.rep.set("scrape_p50_ms", "ms", percentile(o.scrapeMS, 0.50), n)
	e.rep.set("scrape_p99_ms", "ms", percentile(o.scrapeMS, 0.99), n)
	for _, r := range scrapeRoutes {
		e.rep.set("scrape."+r.key+".p50_ms", "ms", percentile(o.routeMS[r.key], 0.5), len(o.routeMS[r.key]))
		e.rep.set("scrape."+r.key+".bytes", "B", median(o.routeB[r.key]), len(o.routeB[r.key]))
	}
	e.rep.set("http.post_runs_ms", "ms", percentile(o.postMS, 0.5), len(o.postMS))
	e.rep.set("gen.late_ms", "ms", percentile(o.lateMS, 1), len(o.lateMS))
	for _, r := range append([]route{{"runs", "/runs"}}, scrapeRoutes...) {
		if c := o.serverN[r.pattern]; c > 0 {
			e.rep.set("http.server_ms."+r.key, "ms", o.serverNS[r.pattern]/c/1e6, int(c))
		}
	}
	rounds := uint64(len(o.walls))
	e.rep.set("hub.published", "count", float64(o.published/rounds), len(o.walls))
	e.rep.set("hub.dropped", "count", float64(o.dropped), len(o.walls))
	e.rep.set("hub.evicted", "count", float64(o.evicted), len(o.walls))
	e.rep.set("hub.queue_high_water", "count", float64(o.queueHW), len(o.walls))
	e.setRuntime(ps)
	if e.tr != nil {
		untracedPerSlice := wall / float64(o.slices/rounds)
		e.rep.set("trace.fleet_coverage", "ratio", tracedPerSlice.Seconds()/untracedPerSlice, int(rounds))
	}
	return nil
}

// fleetRound runs one gateway from start to drained SSE and appends its
// samples to o.
func fleetRound(e *env, specs []steelnetd.RunSpec, o *fleetObs) error {
	t0 := time.Now()
	backends := steelnetd.Backends{}
	for _, f := range []*steelnetd.FakeBackend{steelnetd.NewFakeKafka(), steelnetd.NewFakeMQTT()} {
		backends[f.Name()] = f
	}
	g := steelnetd.NewGateway(steelnetd.GatewayConfig{Backends: backends, MaxConcurrent: max(e.workers-1, 1)})
	srv, err := steelnetd.Listen("127.0.0.1:0", g)
	if err != nil {
		return err
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Connection 1: the fleet SSE stream, subscribed before any run
	// starts so it must see every frame the hub publishes.
	sseTr := &http.Transport{MaxConnsPerHost: 1}
	defer sseTr.CloseIdleConnections()
	sse, err := openSSE(&http.Client{Transport: sseTr}, base+"/events")
	if err != nil {
		return err
	}
	defer sse.close()

	// Connection 2: run submission, then the open-loop scraper.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: scrapeTimeout}
	var first time.Time
	for i, spec := range specs {
		body, _ := json.Marshal(spec)
		t := time.Now()
		if i == 0 {
			first = t
		}
		resp, err := client.Post(base+"/runs", "application/json", bytes.NewReader(body))
		if e.rep.ok(err == nil, "fleet: POST /runs: %v", err) {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // status carries the outcome
			resp.Body.Close()
			e.rep.ok(resp.StatusCode == http.StatusCreated, "fleet: POST /runs %s: %s", spec.ID, resp.Status)
		}
		o.postMS = append(o.postMS, float64(time.Since(t))/1e6)
	}
	o.setup = append(o.setup, time.Since(t0))

	scrape(e, g, client, base, o)

	// Drained: the SSE client has read every frame the hub published.
	deadline := time.Now().Add(drainTimeout)
	for sse.frames.Load() < g.Hub().Published() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	o.walls = append(o.walls, time.Since(first))

	var hz struct {
		Published, Dropped, Evicted uint64
		QueueHighWater              uint64 `json:"queue_high_water"`
	}
	if err := getJSON(client, base+"/healthz", &hz); e.rep.ok(err == nil, "fleet: /healthz: %v", err) {
		o.published += hz.Published
		o.dropped += hz.Dropped
		o.evicted += hz.Evicted
		o.queueHW = max(o.queueHW, hz.QueueHighWater)
		got := sse.frames.Load()
		missing := int(hz.Published - min(got, hz.Published))
		e.rep.attempted += int(hz.Published)
		e.rep.failed += missing + int(hz.Dropped)
		if missing > 0 || hz.Dropped > 0 || hz.Evicted > 0 {
			fmt.Fprintf(e.log, "perfbench: FAIL: fleet SSE read %d of %d frames (hub dropped %d, evicted %d)\n",
				got, hz.Published, hz.Dropped, hz.Evicted)
		}
	}
	var runs []steelnetd.RunStatus
	if err := getJSON(client, base+"/runs", &runs); e.rep.ok(err == nil, "fleet: /runs: %v", err) {
		var firings uint64
		for _, r := range runs {
			e.rep.ok(r.State == steelnetd.StateDone, "fleet: run %s ended %s %s", r.ID, r.State, r.Error)
			firings += r.Firings
			o.slices += r.Seq
		}
		var logs, total uint64
		for _, name := range []string{"kafka", "mqtt"} {
			b, err := get(client, base+"/backends/"+name+"/log")
			if !e.rep.ok(err == nil, "fleet: %s log: %v", name, err) {
				continue
			}
			e.checkOutput("fleet."+name, b)
			logs += uint64(bytes.Count(b, []byte("\n")))
			f, _ := g.Backend(name)
			total += f.(*steelnetd.FakeBackend).Total()
		}
		e.rep.ok(firings == total && logs == total, "fleet: %d firings, %d backend messages, %d log lines",
			firings, total, logs)
	}
	if b, err := get(client, base+"/metrics"); e.rep.ok(err == nil, "fleet: /metrics: %v", err) {
		serverDurations(b, o.serverNS, o.serverN)
	}
	return nil
}

// scrape is the open-loop scraper: request i is due at start + i/rate
// whether or not earlier ones have returned, and is timed from when it
// was due, so a stall counts against every request it delays. It starts
// once the first run has published and stops when every run is done.
func scrape(e *env, g *steelnetd.Gateway, client *http.Client, base string, o *fleetObs) {
	for target(g) == "" {
		time.Sleep(time.Millisecond)
	}
	period := time.Second / scrapeRate
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		time.Sleep(time.Until(due))
		if allDone(g) {
			return
		}
		r := scrapeRoutes[i%len(scrapeRoutes)]
		url := base + "/metrics"
		switch r.key {
		case "run_metrics":
			url = base + "/runs/" + target(g) + "/metrics"
		case "history":
			url = base + "/runs/" + target(g) + "/history?metric=slo/breaches"
		}
		sent := time.Now()
		b, err := get(client, url)
		lat := float64(time.Since(due)) / 1e6
		o.lateMS = append(o.lateMS, float64(sent.Sub(due))/1e6)
		if !e.rep.ok(err == nil, "fleet: scrape %s: %v", url, err) {
			continue
		}
		o.scrapeMS = append(o.scrapeMS, lat)
		o.routeMS[r.key] = append(o.routeMS[r.key], lat)
		o.routeB[r.key] = append(o.routeB[r.key], float64(len(b)))
	}
}

// target picks the run a per-run scrape asks about: the first running
// run whose first slice is fully recorded (the gateway advances Seq
// before it appends a slice's history, so Seq 2 means slice 1 is in),
// else the last finished one.
func target(g *steelnetd.Gateway) string {
	last := ""
	for _, st := range g.List() {
		switch {
		case st.State == steelnetd.StateRunning && st.Seq > 1:
			return st.ID
		case st.State == steelnetd.StateDone:
			last = st.ID
		}
	}
	return last
}

func allDone(g *steelnetd.Gateway) bool {
	for _, st := range g.List() {
		if st.State == steelnetd.StateRunning {
			return false
		}
	}
	return true
}

// get fetches url and fails on any status but 200.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s", resp.Status)
	}
	return b, nil
}

func getJSON(c *http.Client, url string, v any) error {
	b, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// serverDurations adds each route's steelnetd_http_request_duration_ns
// sum and count from a Prometheus exposition.
func serverDurations(expo []byte, sums, counts map[string]float64) {
	const fam = "steelnetd_http_request_duration_ns_"
	for _, line := range strings.Split(string(expo), "\n") {
		rest, ok := strings.CutPrefix(line, fam)
		if !ok {
			continue
		}
		kind, rest, _ := strings.Cut(rest, "{")
		_, rest, _ = strings.Cut(rest, `route="`)
		route, rest, _ := strings.Cut(rest, `"`)
		_, val, _ := strings.Cut(rest, "} ")
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch kind {
		case "sum":
			sums[route] += v
		case "count":
			counts[route] += v
		}
	}
}

// sseStream counts the frames of one SSE response on its own goroutine.
type sseStream struct {
	body   io.ReadCloser
	frames atomic.Uint64
	done   chan struct{}
}

// openSSE connects, waits for the hub's hello frame (so the
// subscription exists), then counts every later frame.
func openSSE(c *http.Client, url string) (*sseStream, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	s := &sseStream{body: resp.Body, done: make(chan struct{})}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("SSE hello: %w", err)
		}
		if line == "\n" {
			break
		}
	}
	go func() {
		defer close(s.done)
		inFrame, cont := false, false
		for {
			line, err := br.ReadSlice('\n')
			full := err == bufio.ErrBufferFull
			if err != nil && !full {
				return
			}
			if !cont && len(line) == 1 && line[0] == '\n' {
				if inFrame {
					s.frames.Add(1)
				}
				inFrame = false
			} else {
				inFrame = true
			}
			cont = full // the next slice continues this line
		}
	}()
	return s, nil
}

// close ends the stream and waits for its reader to exit.
func (s *sseStream) close() {
	s.body.Close()
	<-s.done
}

// fleet layers, in the order the gateway calls them each slice.
const (
	layerNew = iota
	layerStep
	layerSample
	layerPublish
	layerAppend
	layerEval
	layerHub
	numLayers
)

var layerNames = [numLayers]string{"headless.new", "headless.step", "headless.sample", "obs.publish",
	"tshist.append", "rules.eval", "hub.publish"}

// layerCost accumulates one layer's wall time and allocations.
type layerCost struct {
	dur           time.Duration
	allocs, bytes uint64
}

// serialPass steps the fleet's specs one after another through the
// public functions the gateway calls per slice. With a tracer it puts a
// span and a runtime-counter reading around each call; without one it
// only runs them.
type serialPass struct {
	tr   *tracer
	rt   *rtReader
	cost [numLayers]layerCost
	root int

	slices, sampled, changed, events uint64
}

// mark is what enter hands to exit: the open span and the runtime
// counters at entry.
type mark struct {
	span int
	rt   rtStats
}

func (p *serialPass) enter(l int) mark {
	if p.tr == nil {
		return mark{}
	}
	m := mark{span: p.tr.begin(layerNames[l], p.root, 0)}
	m.rt = p.rt.read()
	return m
}

func (p *serialPass) exit(l int, m mark) {
	if p.tr == nil {
		return
	}
	d := p.rt.read().sub(m.rt)
	c := &p.cost[l]
	c.allocs += d.allocObjs
	c.bytes += d.allocBytes
	c.dur += p.tr.end(m.span)
}

// run steps every spec to its horizon and returns the wall time.
func (p *serialPass) run(specs []steelnetd.RunSpec) (time.Duration, error) {
	hub := steelnetd.NewHub()
	sub, cancel := hub.Subscribe("")
	defer cancel()
	kafka := steelnetd.NewFakeKafka()
	start := time.Now()
	for _, spec := range specs {
		p.root = -1
		if p.tr != nil {
			p.root = p.tr.begin("fleet.run", -1, 0)
		}
		m := p.enter(layerNew)
		drv, err := core.NewHeadless(spec.Run)
		p.exit(layerNew, m)
		if err != nil {
			return 0, err
		}
		rules, err := steelnetd.ParseRuleSet(spec.Rules)
		if err != nil {
			return 0, err
		}
		eng := steelnetd.NewEngine(rules)
		broker := obs.NewBroker()
		rec := tshist.NewRecorder(0, 0, 0)
		prev := map[string]float64{}
		var payload []byte
		for !drv.Done() {
			m = p.enter(layerStep)
			drv.Step()
			p.exit(layerStep, m)

			m = p.enter(layerSample)
			s := drv.Sample()
			p.exit(layerSample, m)

			m = p.enter(layerPublish)
			err := broker.Publish(drv.Registry(), nil, s.SimNS)
			broker.PublishBreaches(s.Breaches)
			p.exit(layerPublish, m)
			if err != nil {
				return 0, err
			}

			m = p.enter(layerAppend)
			for _, t := range s.Tags {
				rec.Append(t.Name, s.SimNS, t.Value)
			}
			p.exit(layerAppend, m)

			changed := 0
			for _, t := range s.Tags {
				if v, seen := prev[t.Name]; !seen || v != t.Value {
					prev[t.Name] = t.Value
					changed++
				}
			}
			p.slices++
			p.sampled += uint64(len(s.Tags))
			p.changed += uint64(changed)

			m = p.enter(layerEval)
			firings := eng.Eval(&s)
			p.exit(layerEval, m)
			for _, f := range firings {
				if err := kafka.Publish(f.Topic, spec.ID, []byte(f.Rule)); err != nil {
					return 0, err
				}
			}

			if changed > 0 {
				payload = strconv.AppendUint(append(payload[:0], "event: tags\ndata: "...), s.Seq, 10)
				payload = append(payload, "\n\n"...)
				m = p.enter(layerHub)
				hub.Publish(steelnetd.Frame{Run: spec.ID, Data: payload})
				p.exit(layerHub, m)
				<-sub
			}
		}
		for _, v := range drv.Registry().Values() {
			if v.Name == "sim_events_fired_total" {
				p.events += uint64(v.Value)
			}
		}
		if p.tr != nil {
			p.tr.end(p.root)
		}
	}
	return time.Since(start), nil
}

// tracedFleet runs the serial pass untraced and then traced, sets the
// per-slice layer costs, and returns the traced time per slice summed
// over the layers (the numerator of trace.fleet_coverage).
func tracedFleet(e *env, specs []steelnetd.RunSpec) (time.Duration, error) {
	runtime.GC()
	plain := &serialPass{}
	plainWall, err := plain.run(specs)
	if err != nil {
		return 0, err
	}
	runtime.GC()
	p := &serialPass{tr: e.tr, rt: e.rt}
	tracedWall, err := p.run(specs)
	if err != nil {
		return 0, err
	}
	e.rep.ok(p.slices == plain.slices && p.changed == plain.changed,
		"fleet: traced pass stepped %d slices (%d changed tags), untraced %d (%d)",
		p.slices, p.changed, plain.slices, plain.changed)
	n := float64(p.slices)
	var perSlice, collect time.Duration
	for l, c := range p.cost {
		if l == layerNew {
			continue // once per run, not per slice
		}
		if l != layerStep {
			collect += c.dur
		}
		name := layerNames[l]
		e.rep.set(name+"_us", "us", float64(c.dur)/1e3/n, int(p.slices))
		e.rep.set(name+".allocs_per_slice", "count", float64(c.allocs)/n, int(p.slices))
		e.rep.set(name+".alloc_kb_per_slice", "KB", float64(c.bytes)/1024/n, int(p.slices))
		perSlice += c.dur
	}
	perSlice /= time.Duration(p.slices)
	e.rep.set("changed_frac", "ratio", float64(p.changed)/float64(p.sampled), int(p.slices))
	e.rep.set("trace.overhead", "ratio", tracedWall.Seconds()/plainWall.Seconds()-1, 1)
	e.setRoles(p.cost[layerNew].dur, p.cost[layerStep].dur, collect, p.events)
	return perSlice, nil
}
