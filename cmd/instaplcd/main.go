// Command instaplcd runs the InstaPLC failover scenario (§4) and prints
// Fig. 5: packets per 50 ms from both vPLCs and towards the I/O device,
// around a mid-run crash of the primary controller.
//
// Usage:
//
//	instaplcd [-seed N] [-cycle D] [-fail D] [-horizon D] [-baseline]
//	          [-faults SPEC] [-chaos] [-workers N] [-shards N]
//	          [-checkpoint FILE] [-checkpoint-every D] [-resume FILE]
//	          [-trace FILE] [-stats] [-cpuprofile FILE]
//	          [-int FILE] [-slo SPEC] [-flightrec FILE]
//	          [-obs-addr ADDR] [-obs-linger D]
//
// -faults replaces the default crash with a declarative fault plan,
// e.g. "hoststall:vplc1@1.3s+400ms,loss:dp.2@0.5s+1s*0.2"; the run
// prints the executed fault trace next to the figure. -chaos sweeps
// randomized fault plans of increasing intensity over the scenario.
// -checkpoint writes a replay-anchored checkpoint of the single run
// every -checkpoint-every of simulated time (for -chaos: one file
// recording completed sweep cells); -resume restarts from such a file.
// -trace exports the frame lifecycle (and fault spans) as JSONL plus a
// Chrome/Perfetto timeline; -stats prints the component metrics
// snapshot. -int stamps vPLC heartbeats with in-band telemetry at the
// data plane and exports the per-path digests (failover appears as a
// path change with its gap measured in-band); -slo watches objectives
// like "latency:dp.out2<1ms" over those observations and logs
// breaches; -flightrec dumps the bounded flight recorder after the
// run. -stats forces -chaos sweeps serial; -trace and -int merge
// per-cell buffers and stay parallel (resumable chaos sweeps remain
// serial under any of the three). -shards is the shared parallelism
// knob across the steelnet commands and, when set, overrides -workers;
// either way the output is byte-identical for any value. -obs-addr
// serves live Prometheus metrics, SSE breach events and pprof over
// HTTP during the run (-obs-linger keeps the server up afterwards);
// the URL goes to stderr and stdout is unchanged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"steelnet/internal/cli"
	"steelnet/internal/core"
	"steelnet/internal/faults"
	"steelnet/internal/instaplc"
	"steelnet/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("instaplcd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "experiment seed")
	cycle := fs.Duration("cycle", 1600*time.Microsecond, "IO cycle time")
	fail := fs.Duration("fail", 1300*time.Millisecond, "when the primary vPLC crashes")
	horizon := fs.Duration("horizon", 3*time.Second, "simulated time span")
	wd := fs.Int("watchdog", 2, "InstaPLC data-plane watchdog in cycles")
	baseline := fs.Bool("baseline", false, "disable InstaPLC (plain L2 switch) for comparison")
	faultSpec := fs.String("faults", "", "fault plan spec replacing the default crash (kind:target@at[+dur][*mag],...)")
	chaos := fs.Bool("chaos", false, "sweep randomized fault plans over the scenario")
	workers := fs.Int("workers", 0, "chaos sweep worker pool size (0 = NumCPU)")
	shards := cli.RegisterShardsFlagOn(fs)
	every := fs.Duration("checkpoint-every", 500*time.Millisecond, "simulated time between periodic checkpoints")
	res := cli.RegisterResumeFlagsOn(fs)
	tel := cli.RegisterTelemetryFlagsOn(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	tel.Out = stdout
	tel.Err = stderr
	if err := tel.Begin("instaplcd"); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ckptPath, err := res.Path()
	if err != nil {
		fmt.Fprintf(stderr, "instaplcd: %v\n", err)
		return 2
	}

	cfg := instaplc.DefaultExperimentConfig()
	cfg.Seed = *seed
	cfg.Cycle = *cycle
	cfg.FailAt = *fail
	cfg.Horizon = *horizon
	cfg.InstaWatchdogCycles = *wd
	cfg.DisableInstaPLC = *baseline
	cfg.Trace = tel.Tracer
	cfg.Metrics = tel.Registry
	cfg.INT = tel.Collector != nil
	cfg.Collector = tel.Collector

	if *chaos {
		ccfg := core.DefaultChaosConfig()
		ccfg.Seed = *seed
		ccfg.Base = cfg
		ccfg.Workers = cli.Workers(*workers, *shards)
		cells, err := core.RunChaosSweepResumable(ccfg, ckptPath)
		if err != nil {
			fmt.Fprintf(stderr, "instaplcd: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, core.RenderChaosSweep(cells))
		if err := tel.End(); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}

	if *faultSpec != "" {
		plan, err := faults.ParsePlan(*faultSpec)
		if err != nil {
			fmt.Fprintf(stderr, "instaplcd: %v\n", err)
			return 2
		}
		cfg.Faults = &plan
	}

	h, err := buildHarness(cfg, res.ResumePath, tel, *faultSpec != "")
	if err != nil {
		fmt.Fprintf(stderr, "instaplcd: %v\n", err)
		return 1
	}
	tel.AdoptCollector(h.Collector())
	if err := advanceWithCheckpoints(h, ckptPath, *every); err != nil {
		fmt.Fprintf(stderr, "instaplcd: -checkpoint: %v\n", err)
		return 1
	}
	r := h.Result()

	fmt.Fprint(stdout, instaplc.RenderFigure5(r))
	if *faultSpec != "" {
		fmt.Fprintf(stdout, "\nfault trace (plan %q):\n%s", *faultSpec, r.FaultTrace)
	}
	fmt.Fprintf(stdout, "\nswitchovers=%d absorbed-by-twin=%d failsafe-events=%d final-device-state=%v io-availability=%.4f\n",
		r.Switchovers, r.AbsorbedFrames, r.FailsafeEvents, r.DeviceState, r.IOAvailability)
	if cfg.INT {
		fmt.Fprintf(stdout, "int: %d in-band observations, %d path change(s)\n", r.INTObservations, len(r.PathChanges))
		for _, pc := range r.PathChanges {
			if pc.From == "" {
				continue // a flow's first path is not a failover
			}
			fmt.Fprintf(stdout, "int: flow %d re-routed %s -> %s at t=%v (gap %v, %d silent)\n",
				pc.Flow, pc.From, pc.To, time.Duration(pc.AtNS), time.Duration(pc.GapNS), pc.Silent)
		}
	}
	if r.SwitchoverAt > 0 {
		if *faultSpec != "" {
			// A user plan may contain several failures; the delta against
			// the single default FailAt would be meaningless.
			fmt.Fprintf(stdout, "switchover completed at t=%v\n", r.SwitchoverAt)
		} else {
			fmt.Fprintf(stdout, "switchover completed %v after the failure\n", r.SwitchoverAt.Sub(r.FailAt))
		}
	}
	if err := tel.End(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return 0
}

// buildHarness constructs the run: fresh from cfg, or — with -resume —
// restored from a checkpoint (its recorded configuration wins; the
// restore replays deterministically to the checkpointed instant and
// verifies the state digest). A user-supplied bad fault plan panics in
// the constructor; convert that to a clean CLI error.
func buildHarness(cfg instaplc.ExperimentConfig, resumePath string, tel *cli.Telemetry, userPlan bool) (h *instaplc.Harness, err error) {
	if userPlan {
		defer func() {
			if r := recover(); r != nil {
				h, err = nil, fmt.Errorf("%v", r)
			}
		}()
	}
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return instaplc.Restore(f, func(c *instaplc.ExperimentConfig) {
			c.Trace, c.Metrics, c.Collector = tel.Tracer, tel.Registry, tel.Collector
		})
	}
	return instaplc.NewHarness(cfg), nil
}

// advanceWithCheckpoints runs the harness to its horizon; with a
// checkpoint path it advances in interval-sized slices of simulated
// time and saves after each. The saves come from outside the engine —
// scheduling them as simulation events would perturb the event queue
// and break the replay digest — and cut points are invisible to the
// simulation, so the checkpointed run is byte-identical to a straight
// one. Saves are atomic (temp file + rename): a crash mid-save leaves
// the previous checkpoint intact.
func advanceWithCheckpoints(h *instaplc.Harness, path string, interval time.Duration) error {
	if path == "" {
		h.AdvanceTo(h.Horizon())
		return nil
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	step := sim.Time(interval)
	for t := h.Engine().Now() + step; t < h.Horizon(); t += step {
		h.AdvanceTo(t)
		if err := saveTo(h, path); err != nil {
			return err
		}
	}
	h.AdvanceTo(h.Horizon())
	return saveTo(h, path)
}

func saveTo(h *instaplc.Harness, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := h.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
