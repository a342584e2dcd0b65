package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/mltopo"
	"steelnet/internal/reflection"
	"steelnet/internal/sweep"
)

// Run sizes of the figures workload. Fig. 4 runs both panels at
// fig4Cycles probes per flow; Fig. 6 runs the paper's full grid (two
// apps × four client counts × three topologies) at a shortened horizon.
const (
	fig4Cycles  = 4000
	fig6Horizon = 100 * time.Millisecond
)

var fig4FlowCounts = []int{1, 25}

func figuresConfig(seed uint64, workers int) (reflection.Config, mltopo.Figure6Config) {
	c4 := reflection.DefaultConfig()
	c4.Seed = seed
	c4.Cycles = fig4Cycles
	c4.Workers = workers
	c6 := mltopo.DefaultFigure6Config()
	c6.Seed = seed
	c6.Horizon = fig6Horizon
	c6.Workers = workers
	return c4, c6
}

// fig6Cells expands the Fig. 6 grid in the order mltopo.RunFigure6
// sweeps it: app-major, then client count, then topology.
func fig6Cells(c6 mltopo.Figure6Config) []mltopo.Scenario {
	var out []mltopo.Scenario
	for _, app := range mltopo.Apps {
		for _, clients := range c6.ClientCounts {
			for _, kind := range mltopo.Kinds {
				sc := mltopo.DefaultScenario(kind, app, clients)
				sc.Seed = c6.Seed
				sc.Horizon = c6.Horizon
				out = append(out, sc)
			}
		}
	}
	return out
}

// figuresBuild constructs every Fig. 4 and Fig. 6 cell harness without
// running it, and returns the total simulated time the cells cover.
// Its wall time is the workload's set-up time.
func figuresBuild(c4 reflection.Config, c6 mltopo.Figure6Config) time.Duration {
	var simulated time.Duration
	for _, v := range reflection.AllVariants() {
		simulated += time.Duration(reflection.NewHarness(c4, v).Horizon())
	}
	base := reflection.NewBase()
	for _, flows := range fig4FlowCounts {
		c := c4
		c.Flows = flows
		simulated += time.Duration(reflection.NewHarness(c, base.CloneFresh()).Horizon())
	}
	for _, sc := range fig6Cells(c6) {
		simulated += time.Duration(mltopo.NewHarness(sc).Horizon())
	}
	return simulated
}

// runFigures regenerates Fig. 4 (both panels) and Fig. 6 through the
// core entry points, pass after pass, until the budget is spent. A
// traced run adds one traced pass after the first untraced one.
func runFigures(e *env) error {
	c4, c6 := figuresConfig(e.seed, e.workers)
	var setup, fig4, fig6, run []time.Duration
	var simulated time.Duration
	var ps phaseStats
	var traced time.Duration
	for pass := 0; e.more(pass, lastOf(setup)+lastOf(run)); pass++ {
		runtime.GC()
		t0 := time.Now()
		simulated = figuresBuild(c4, c6)
		setup = append(setup, time.Since(t0))
		runtime.GC()

		var delay, jitter, f6 string
		var d4, d6 time.Duration
		e.measure(&ps, func() {
			t := time.Now()
			delay, _ = core.Figure4Delay(c4)
			jitter, _ = core.Figure4Jitter(c4)
			d4 = time.Since(t)
			t = time.Now()
			f6, _ = core.Figure6(c6)
			d6 = time.Since(t)
		})
		fig4, fig6, run = append(fig4, d4), append(fig6, d6), append(run, d4+d6)
		e.checkOutput("figures.fig4", []byte(delay+jitter))
		e.checkOutput("figures.fig6", []byte(f6))
		if e.tr != nil && pass == 0 {
			traced = tracedFigures(e, c4, c6)
		}
	}
	e.rep.set("setup_s", "s", median(secs(setup)), len(setup))
	e.rep.set("fig4_s", "s", median(secs(fig4)), len(fig4))
	e.rep.set("fig6_s", "s", median(secs(fig6)), len(fig6))
	e.rep.set("run_s", "s", median(secs(run)), len(run))
	e.rep.set("sim_x", "x", simulated.Seconds()/median(secs(run)), len(run))
	e.setRuntime(ps)
	if e.tr != nil {
		e.rep.set("trace.overhead", "ratio", traced.Seconds()/median(secs(run))-1, 1)
	}
	return nil
}

// lastOf is the latest pass's wall time: the estimate of the next
// pass, so that the final pass does not run far past the budget.
func lastOf(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return ds[len(ds)-1]
}

// cellTimes records one traced sweep: the wall time of every cell.
type cellTimes struct {
	cells []time.Duration
	wall  time.Duration
}

// report sets the sweep pool's busy fraction (Σ cell time over
// wall × workers) and straggler fraction (longest cell over wall).
func (c cellTimes) report(e *env, name string) {
	var busy, longest time.Duration
	for _, d := range c.cells {
		busy += d
		longest = max(longest, d)
	}
	workers := min(e.workers, len(c.cells))
	e.rep.set("sweep."+name+".busy_frac", "ratio", busy.Seconds()/(c.wall.Seconds()*float64(workers)), len(c.cells))
	e.rep.set("sweep."+name+".straggler_frac", "ratio", longest.Seconds()/c.wall.Seconds(), len(c.cells))
}

// tracedSweep runs n cells on the sweep pool under a span named name,
// each cell under its own span on its own lane, and returns the results
// in cell order with the cell and sweep wall times.
func tracedSweep[T any](e *env, name string, n int, cell func(i, span, lane int) T) ([]T, cellTimes) {
	sp := e.tr.begin(name, -1, 0)
	ln := newLanes(e.workers)
	durs := make([]time.Duration, n)
	out := sweep.Run(e.workers, n, func(i int) T {
		lane := <-ln
		defer func() { ln <- lane }()
		c := e.tr.begin(name+".cell", sp, lane)
		res := cell(i, c, lane)
		durs[i] = e.tr.end(c)
		return res
	})
	return out, cellTimes{cells: durs, wall: e.tr.end(sp)}
}

// tracedFigures regenerates both figures from the layers' own public
// functions — harness construction, then AdvanceTo the horizon — with a
// span around each call, checks the tables are byte-identical to the
// untraced pass, and sets the per-layer metrics. It returns the pass's
// wall time.
func tracedFigures(e *env, c4 reflection.Config, c6 mltopo.Figure6Config) time.Duration {
	runtime.GC()
	start := time.Now()
	var reflEvents, mlEvents atomic.Uint64

	reflCell := func(cfg reflection.Config, v reflection.Variant, span, lane int) reflection.Result {
		b := e.tr.begin("reflection.build", span, lane)
		h := reflection.NewHarness(cfg, v)
		e.tr.end(b)
		r := e.tr.begin("reflection.run", span, lane)
		h.AdvanceTo(h.Horizon())
		e.tr.end(r)
		reflEvents.Add(h.Engine().EventsFired())
		c := e.tr.begin("reflection.collect", span, lane)
		defer e.tr.end(c)
		return h.Result()
	}
	protos := reflection.AllVariants()
	delay, t4a := tracedSweep(e, "sweep.fig4", len(protos), func(i, span, lane int) reflection.Result {
		return reflCell(c4, protos[i].CloneFresh(), span, lane)
	})
	base := reflection.NewBase()
	jitter, t4b := tracedSweep(e, "sweep.fig4", len(fig4FlowCounts), func(i, span, lane int) reflection.Result {
		c := c4
		c.Flows = fig4FlowCounts[i]
		return reflCell(c, base.CloneFresh(), span, lane)
	})
	r4 := e.tr.begin("figures.render", -1, 0)
	table4 := reflection.DelayTable(delay) + reflection.JitterTable(jitter)
	e.tr.end(r4)
	e.checkOutput("figures.fig4", []byte(table4))

	cells := fig6Cells(c6)
	f6, t6 := tracedSweep(e, "sweep.fig6", len(cells), func(i, span, lane int) mltopo.Result {
		b := e.tr.begin("mltopo.build", span, lane)
		h := mltopo.NewHarness(cells[i])
		e.tr.end(b)
		r := e.tr.begin("mltopo.run."+kindKey(cells[i].Kind), span, lane)
		h.AdvanceTo(h.Horizon())
		e.tr.end(r)
		mlEvents.Add(h.Engine().EventsFired())
		c := e.tr.begin("mltopo.collect", span, lane)
		defer e.tr.end(c)
		return h.Result()
	})
	r6 := e.tr.begin("figures.render", -1, 0)
	table6 := mltopo.RenderFigure6(f6)
	e.tr.end(r6)
	e.checkOutput("figures.fig6", []byte(table6))
	wall := time.Since(start)

	t4 := cellTimes{cells: append(t4a.cells, t4b.cells...), wall: t4a.wall + t4b.wall}
	t4.report(e, "fig4")
	t6.report(e, "fig6")
	reflRun := e.tr.total("reflection.run")
	e.rep.set("reflection.build_s", "s", e.tr.total("reflection.build").Seconds(), len(e.tr.durations("reflection.build")))
	e.rep.set("reflection.run_s", "s", reflRun.Seconds(), len(e.tr.durations("reflection.run")))
	e.rep.set("reflection.events", "count", float64(reflEvents.Load()), 1)
	e.rep.set("reflection.ns_per_event", "ns", float64(reflRun.Nanoseconds())/float64(reflEvents.Load()), 1)
	var mlRun time.Duration
	for _, k := range mltopo.Kinds {
		d := e.tr.total("mltopo.run." + kindKey(k))
		mlRun += d
		e.rep.set("mltopo.run_s."+kindKey(k), "s", d.Seconds(), len(e.tr.durations("mltopo.run."+kindKey(k))))
	}
	e.rep.set("mltopo.build_s", "s", e.tr.total("mltopo.build").Seconds(), len(e.tr.durations("mltopo.build")))
	e.rep.set("mltopo.run_s", "s", mlRun.Seconds(), len(cells))
	e.rep.set("mltopo.events", "count", float64(mlEvents.Load()), 1)
	e.rep.set("mltopo.ns_per_event", "ns", float64(mlRun.Nanoseconds())/float64(mlEvents.Load()), 1)
	e.setRoles(e.tr.total("reflection.build")+e.tr.total("mltopo.build"), reflRun+mlRun,
		e.tr.total("reflection.collect")+e.tr.total("mltopo.collect")+e.tr.total("figures.render"),
		reflEvents.Load()+mlEvents.Load())
	return wall
}

// kindKey is a topology's metric-name suffix.
func kindKey(k mltopo.Kind) string {
	switch k {
	case mltopo.Ring:
		return "ring"
	case mltopo.LeafSpine:
		return "leafspine"
	case mltopo.MLAware:
		return "mlaware"
	}
	return fmt.Sprintf("kind%d", int(k))
}
