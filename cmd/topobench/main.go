// Command topobench runs the ML-aware topology study (§5) and prints
// Fig. 6: mean inference latency versus client count for the industrial
// ring, a leaf-spine, and the traffic-aware topology, for both the
// object-identification and defect-detection workloads.
//
// Usage:
//
//	topobench [-seed N] [-clients list] [-horizon D] [-workers N] [-shards N]
//	          [-campus] [-cells N] [-cell-switches N] [-cell-hosts N] [-spines N]
//	          [-checkpoint FILE] [-resume FILE]
//	          [-trace FILE] [-stats] [-cpuprofile FILE]
//	          [-int FILE] [-slo SPEC] [-flightrec FILE]
//	          [-obs-addr ADDR] [-obs-linger D]
//
// -trace exports the frame lifecycle of every cell as JSONL plus a
// Chrome/Perfetto timeline; -stats prints the component metrics
// snapshot. -int stamps camera requests with in-band telemetry and
// exports per-path digests; -slo watches objectives over those
// observations; -flightrec dumps the bounded flight recorder after
// the run. -stats forces the grid serial (large with default counts —
// prefer a single small cell, e.g. -clients 32); -trace and -int merge
// per-cell buffers and stay parallel, but checkpointed grids remain
// serial under any of the three. -checkpoint persists each completed
// grid cell; -resume restarts an interrupted grid from such a file,
// skipping finished cells.
//
// -campus switches to the campus-scale sharded experiment: a
// spine-plus-cells plant network partitioned one shard per cell and
// executed on -shards worker goroutines under conservative
// window-barrier sync. The partition is derived from the topology, so
// the table (and -int/-slo exports) are byte-identical for every
// -shards value. In campus mode -checkpoint saves a replay-anchored
// checkpoint at the end of the run and -resume replays one to its
// recorded instant before continuing; -int/-slo observe the cross-cell
// flows (sinks strip the telemetry per cell, merged in shard order).
//
// -obs-addr serves live observability over HTTP while the run is in
// flight: Prometheus metrics on /metrics, the per-shard coordinator
// profile as JSON on /shards, an SSE stream of metric deltas and SLO
// breaches on /events, liveness on /healthz, and net/http/pprof under
// /debug/pprof/. In campus mode the run publishes a snapshot after each
// of 64 equal slices of the horizon; the endpoint's URL goes to stderr
// and the run's stdout stays byte-identical to an unobserved run.
// -obs-linger keeps the server up after the run ends so a scrape or a
// human can catch the final snapshot.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/mltopo"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "experiment seed")
	clients := fs.String("clients", "32,64,128,256", "comma-separated client counts")
	horizon := fs.Duration("horizon", 2*time.Second, "simulated time per cell")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = NumCPU, 1 = serial)")
	shards := cli.RegisterShardsFlagOn(fs)
	campus := fs.Bool("campus", false, "run the campus-scale sharded experiment instead of the Fig. 6 grid")
	cells := fs.Int("cells", 4, "campus: production cells (one shard each)")
	cellSwitches := fs.Int("cell-switches", 8, "campus: switches per cell tree")
	cellHosts := fs.Int("cell-hosts", 2, "campus: hosts per switch")
	spines := fs.Int("spines", 2, "campus: backbone spine switches")
	res := cli.RegisterResumeFlagsOn(fs)
	tel := cli.RegisterTelemetryFlagsOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tel.Out = stdout
	tel.Err = stderr
	if err := tel.Begin("topobench"); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ckptPath, err := res.Path()
	if err != nil {
		fmt.Fprintf(stderr, "topobench: %v\n", err)
		return 2
	}

	if *campus {
		cfg := core.CampusConfig{
			Seed: *seed,
			Topo: topo.CampusConfig{
				Cells:           *cells,
				SwitchesPerCell: *cellSwitches,
				HostsPerSwitch:  *cellHosts,
				Spines:          *spines,
			},
			Horizon: sim.Duration(horizon.Nanoseconds()),
			INT:     tel.Collector != nil,
			SLO:     tel.SLOSpec,
			Workers: cli.Workers(*workers, *shards),
			// Observational knobs, never encoded in checkpoints: the
			// profiler rides -stats/-obs-addr, per-shard tracing rides
			// -trace, and the registry collects whenever either asked.
			Profile: tel.Registry != nil,
			Trace:   tel.Tracer != nil,
			Metrics: tel.Registry,
		}
		return runCampus(cfg, res.ResumePath, ckptPath, tel, stdout, stderr)
	}

	counts, err := cli.ParseInts(*clients)
	if err != nil {
		fmt.Fprintf(stderr, "topobench: bad -clients: %v\n", err)
		return 2
	}
	cfg := mltopo.Figure6Config{
		Seed: *seed, ClientCounts: counts, Horizon: *horizon,
		Workers: cli.Workers(*workers, *shards),
		Trace:   tel.Tracer, Metrics: tel.Registry,
		INT: tel.Collector != nil, Collector: tel.Collector,
	}
	results, err := mltopo.RunFigure6Resumable(cfg, ckptPath)
	if err != nil {
		fmt.Fprintf(stderr, "topobench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, mltopo.RenderFigure6(results))
	var worst float64
	for _, r := range results {
		if r.LossRate > worst {
			worst = r.LossRate
		}
	}
	fmt.Fprintf(stdout, "worst-case request loss across cells: %.3f\n", worst)
	if err := tel.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

// runCampus executes the campus experiment: a fresh build, or a
// deterministic replay-and-continue from a checkpoint. The worker count
// is never encoded in checkpoints, so a run saved under -shards=1 may
// resume under -shards=8 (and vice versa) with byte-identical output.
func runCampus(cfg core.CampusConfig, resumePath, ckptPath string, tel *cli.Telemetry, stdout, stderr io.Writer) int {
	var (
		h   *core.CampusHarness
		err error
	)
	if resumePath != "" {
		f, oerr := os.Open(resumePath)
		if oerr != nil {
			fmt.Fprintf(stderr, "topobench: -resume: %v\n", oerr)
			return 2
		}
		h, err = core.RestoreCampus(f, func(c *core.CampusConfig) {
			// Checkpoints carry only the scenario; re-arm this run's
			// execution and observational knobs on the restored harness.
			c.Workers = cfg.Workers
			c.Profile = cfg.Profile
			c.Trace = cfg.Trace
			c.Metrics = cfg.Metrics
		})
		f.Close()
	} else {
		h, err = core.NewCampusHarness(cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "topobench: campus: %v\n", err)
		return 1
	}
	if tel.Obs != nil {
		// Live publishing: advance the horizon in slices and publish a
		// snapshot at each safe point. Slicing never changes output —
		// the window grid is anchored to event content, not deadlines.
		const slices = 64
		start, end := int64(h.Now()), int64(h.Horizon())
		for i := int64(1); i <= slices; i++ {
			h.AdvanceTo(sim.Time(start + (end-start)*i/slices))
			if mw := h.MergedWatchdog(); mw != nil {
				tel.Obs.PublishBreaches(mw.Breaches())
			}
			tel.PublishObs(h.ShardProfile(), int64(h.Now()))
		}
	} else {
		h.Run()
	}
	result := h.Result()
	fmt.Fprint(stdout, core.RenderCampus(result))
	if tel.Stats && h.Config().Profile {
		fmt.Fprint(stdout, core.RenderShardProfile(h.ShardProfile()))
	}
	if tel.Tracer != nil {
		// Hand the stitched cross-shard timeline to the session tracer
		// so -trace exports one causal JSONL/Perfetto document.
		tel.Tracer.AbsorbEvents(h.MergedTrace())
	}
	if ckptPath != "" {
		werr := func() error {
			f, err := os.Create(ckptPath)
			if err != nil {
				return err
			}
			if err := h.Save(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}()
		if werr != nil {
			fmt.Fprintf(stderr, "topobench: -checkpoint: %v\n", werr)
			return 1
		}
	}
	tel.AdoptCollector(h.MergedCollector())
	if tel.Watchdog != nil {
		if mw := h.MergedWatchdog(); mw != nil {
			tel.Watchdog.Absorb(mw)
		}
	}
	if err := tel.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}
