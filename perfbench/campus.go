package main

import (
	"fmt"
	"runtime"
	"time"

	"steelnet/internal/core"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

// campusHorizon is the simulated length of one campus run: long enough
// that the run phase, not the build, dominates a pass.
const campusHorizon = 5 * sim.Millisecond

// campusConfig is the Campus10k shape (32 cells × 313 switches plus 4
// spines, one host per switch) with INT on cross-cell traffic and a
// latency SLO evaluated per shard.
func campusConfig(seed uint64, workers int) core.CampusConfig {
	return core.CampusConfig{
		Seed: seed,
		Topo: topo.CampusConfig{
			Cells:           32,
			SwitchesPerCell: 313,
			HostsPerSwitch:  1,
			Spines:          4,
		},
		Horizon: campusHorizon,
		Period:  250 * sim.Microsecond,
		INT:     true,
		SLO:     "latency:*<15µs",
		Workers: workers,
	}
}

// runCampus builds and runs the campus, pass after pass, until the
// budget is spent. A traced run adds one traced pass and one serial run
// after the first untraced pass.
func runCampus(e *env) error {
	cfg := campusConfig(e.seed, e.workers)
	var setup, runs []time.Duration
	var ps phaseStats
	var traced time.Duration
	for pass := 0; e.more(pass, lastOf(setup)+lastOf(runs)); pass++ {
		runtime.GC()
		t := time.Now()
		h, err := core.NewCampusHarness(cfg)
		dSetup := time.Since(t)
		if err != nil {
			return err
		}
		var dRun time.Duration
		e.measure(&ps, func() {
			t := time.Now()
			h.Run()
			dRun = time.Since(t)
		})
		setup, runs = append(setup, dSetup), append(runs, dRun)
		checkCampus(e, h)
		if e.tr != nil && pass == 0 {
			if traced, err = tracedCampus(e, cfg, dRun); err != nil {
				return err
			}
		}
	}
	run := median(secs(runs))
	e.rep.set("setup_s", "s", median(secs(setup)), len(setup))
	e.rep.set("run_s", "s", run, len(runs))
	e.rep.set("sim_x", "x", time.Duration(campusHorizon).Seconds()/run, len(runs))
	e.setRuntime(ps)
	if e.tr != nil {
		e.rep.set("trace.overhead", "ratio", traced.Seconds()/(median(secs(setup))+run)-1, 1)
	}
	return nil
}

// checkCampus checks a finished run: frame conservation and the digest
// of the rendered table plus the conservation ledger.
func checkCampus(e *env, h *core.CampusHarness) core.CampusResult {
	res := h.Result()
	acc := res.Accounting
	err := acc.Check()
	e.rep.ok(err == nil, "campus: %v", err)
	e.rep.ok(acc.Delivered > 0 && res.INTObservations > 0, "campus: delivered %d frames, %d INT observations",
		acc.Delivered, res.INTObservations)
	e.checkOutput("campus.table", []byte(core.RenderCampus(res)+fmt.Sprintf("%+v\n", acc)))
	return res
}

// tracedCampus times topology generation on its own, then the harness
// build and the run with the shard profiler on, then the same run at one
// worker. untracedRun is the untraced run time at full width, the
// numerator's partner in shard.parallel_eff. It returns the traced
// build plus run time.
func tracedCampus(e *env, cfg core.CampusConfig, untracedRun time.Duration) (time.Duration, error) {
	runtime.GC()
	root := e.tr.begin("campus", -1, 0)
	g := e.tr.begin("topo.generate", root, 0)
	topo.Campus(cfg.Topo)
	gen := e.tr.end(g)

	pcfg := cfg
	pcfg.Profile = true
	b := e.tr.begin("campus.build", root, 0)
	h, err := core.NewCampusHarness(pcfg)
	build := e.tr.end(b)
	if err != nil {
		return 0, err
	}
	r := e.tr.begin("campus.run", root, 0)
	h.Run()
	run := e.tr.end(r)
	c := e.tr.begin("campus.collect", root, 0)
	res := h.Result()
	table := core.RenderCampus(res)
	collect := e.tr.end(c)
	e.tr.end(root)
	e.checkOutput("campus.table", []byte(table+fmt.Sprintf("%+v\n", res.Accounting)))

	grp := h.Network().Group
	var events uint64
	for i := 0; i < grp.Shards(); i++ {
		events += grp.Shard(i).EventsFired()
	}
	prof := h.ShardProfile()
	var busy, wait int64
	for _, l := range prof.PerShard {
		busy += l.BusyNS
		wait += l.BarrierWaitNS
	}
	e.rep.set("topo.generate_s", "s", gen.Seconds(), 1)
	e.rep.set("campus.build_rest_s", "s", (build - gen).Seconds(), 1)
	e.rep.set("sim.events", "count", float64(events), 1)
	e.rep.set("sim.ns_per_event", "ns", float64(run.Nanoseconds())/float64(events), 1)
	e.rep.set("shard.busy_s", "s", float64(busy)/1e9, len(prof.PerShard))
	e.rep.set("shard.barrier_wait_s", "s", float64(wait)/1e9, len(prof.PerShard))
	e.rep.set("shard.windows", "count", float64(prof.Windows), 1)
	e.rep.set("shard.skipped", "count", float64(prof.Skipped), 1)
	e.rep.set("shard.msgs", "count", float64(prof.Messages), 1)
	e.rep.set("shard.imbalance", "ratio", prof.Imbalance, 1)
	e.rep.set("simnet.delivered", "count", float64(res.Accounting.Delivered), 1)
	e.rep.set("simnet.destroyed", "count", float64(res.Accounting.Destroyed), 1)
	e.rep.set("int.observations", "count", float64(res.INTObservations), 1)
	e.rep.set("slo.breaches", "count", float64(res.Breaches), 1)
	e.setRoles(build, run, collect, events)

	runtime.GC()
	scfg := cfg
	scfg.Workers = 1
	hs, err := core.NewCampusHarness(scfg)
	if err != nil {
		return 0, err
	}
	s := e.tr.begin("campus.run.serial", -1, 0)
	hs.Run()
	serial := e.tr.end(s)
	checkCampus(e, hs)
	e.rep.set("shard.parallel_eff", "ratio", serial.Seconds()/(untracedRun.Seconds()*float64(e.workers)), 1)
	return build + run, nil
}
