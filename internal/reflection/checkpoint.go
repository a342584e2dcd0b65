package reflection

import (
	"fmt"
	"io"

	"steelnet/internal/checkpoint"
	"steelnet/internal/ebpf"
	"steelnet/internal/frame"
	"steelnet/internal/host"
	intnet "steelnet/internal/int"
	"steelnet/internal/metrics"
	"steelnet/internal/sim"
	"steelnet/internal/simnet"
	"steelnet/internal/sweep"
	"steelnet/internal/tap"
	"steelnet/internal/telemetry"
)

// CheckpointKind tags this experiment's checkpoint files.
const CheckpointKind = "reflection"

// Harness is the resumable form of one reflection run (one variant,
// one flow count). Build, advance in steps, checkpoint at any instant;
// Result finalizes (stops the probe flows and drains in-flight frames)
// and may be called once.
type Harness struct {
	cfg     Config
	variant Variant
	engine  *sim.Engine
	sender  *Sender
	refl    *Reflector
	tp      *tap.Tap
	links   []*simnet.Link
	coll    *intnet.Collector

	finished bool
	result   Result
}

// NewHarness builds one reflection cell without running it.
func NewHarness(cfg Config, v Variant) *Harness {
	e := sim.NewEngine(cfg.Seed)
	h := &Harness{cfg: cfg, variant: v, engine: e}
	stk := host.NewStack(cfg.Profile, e.RNG("stack"))
	stk.SetActiveFlows(cfg.Flows)

	h.sender = NewSender(e, "sender", frame.NewMAC(1), frame.NewMAC(2), cfg.ProbeSize)
	costs := cfg.Costs
	h.refl = NewReflector(e, "reflector", frame.NewMAC(2), stk, v, &costs)
	h.tp = tap.New(e, "tap", cfg.TapCfg)

	l1 := simnet.Connect(e, "sender-tap", h.sender.Host().Port(), h.tp.PortA(), cfg.LinkBps, 500*sim.Nanosecond)
	l2 := simnet.Connect(e, "tap-reflector", h.tp.PortB(), h.refl.Host().Port(), cfg.LinkBps, 500*sim.Nanosecond)
	h.links = []*simnet.Link{l1, l2}

	if cfg.INT {
		h.coll = cfg.Collector
		if h.coll == nil {
			h.coll = intnet.NewCollector()
		}
		h.sender.EnableINT()
		h.refl.SetINTSink(h.coll)
		// Source and sink share one stack free list, so the INT-enabled
		// probe path is allocation-free in steady state.
		intPool := &frame.INTPool{}
		h.sender.SetINTPool(intPool)
		h.refl.SetINTPool(intPool)
	}

	if cfg.Trace != nil {
		cfg.Trace.Bind(e)
		h.sender.Host().SetTracer(cfg.Trace)
		h.refl.Host().SetTracer(cfg.Trace)
		h.tp.PortA().SetTracer(cfg.Trace)
		h.tp.PortB().SetTracer(cfg.Trace)
	}
	if cfg.Metrics != nil {
		simnet.RegisterHostMetrics(cfg.Metrics, h.sender.Host())
		simnet.RegisterHostMetrics(cfg.Metrics, h.refl.Host())
		simnet.RegisterPortMetrics(cfg.Metrics, h.tp.PortA())
		simnet.RegisterPortMetrics(cfg.Metrics, h.tp.PortB())
		simnet.RegisterLinkMetrics(cfg.Metrics, l1)
		simnet.RegisterLinkMetrics(cfg.Metrics, l2)
		telemetry.RegisterEngineMetrics(cfg.Metrics, e)
	}

	// Stagger flows across the cycle to avoid synchronized bursts, like
	// a TSN schedule would.
	for fl := 0; fl < cfg.Flows; fl++ {
		offset := sim.Duration(fl) * cfg.Cycle / sim.Duration(cfg.Flows+1)
		h.sender.StartFlow(uint32(fl+1), sim.Time(offset), cfg.Cycle)
	}
	return h
}

// Engine returns the harness's engine.
func (h *Harness) Engine() *sim.Engine { return h.engine }

// Collector returns the INT collector (nil unless cfg.INT).
func (h *Harness) Collector() *intnet.Collector { return h.coll }

// Horizon returns the probing end time (after it, Result drains).
func (h *Harness) Horizon() sim.Time {
	return sim.Time(h.cfg.Cycle) * sim.Time(h.cfg.Cycles+1)
}

// AdvanceTo runs the cell up to instant t.
func (h *Harness) AdvanceTo(t sim.Time) { h.engine.RunUntil(t) }

// Result finalizes the run — stops the probe flows, drains in-flight
// frames and computes the delay/jitter distributions. The first call
// finalizes; later calls return the cached result.
func (h *Harness) Result() Result {
	if h.finished {
		return h.result
	}
	h.finished = true
	h.sender.Stop()
	h.engine.Run() // drain in-flight probes

	delays := metrics.NewSeries(h.cfg.Cycles * h.cfg.Flows)
	for fl := 0; fl < h.cfg.Flows; fl++ {
		for _, rtt := range h.tp.RoundTrip(uint32(fl + 1)) {
			delays.Add(float64(rtt.Delay) / 1e3) // µs
		}
	}
	jitter := metrics.NewSeries(delays.Len())
	med := delays.Median()
	for _, d := range delays.Samples() {
		dev := (d - med) * 1e3 // ns
		if dev < 0 {
			dev = -dev
		}
		jitter.Add(dev)
	}
	h.result = Result{Variant: h.variant.Name, Flows: h.cfg.Flows, Delays: delays, Jitter: jitter}
	if h.variant.Ring != nil {
		h.result.RingRecords = h.variant.Ring.Produced
	}
	return h.result
}

// FoldState folds the cell's live state: engine, the variant's program
// (instructions, maps, rings), reflector verdict counters, tap and
// host ports, links.
func (h *Harness) FoldState(d *checkpoint.Digest) {
	h.engine.FoldState(d)
	h.variant.Program.FoldState(d)
	d.U64(h.refl.Reflected)
	d.U64(h.refl.Passed)
	d.U64(h.refl.Aborted)
	h.sender.Host().FoldState(d)
	h.refl.Host().FoldState(d)
	h.tp.PortA().FoldState(d)
	h.tp.PortB().FoldState(d)
	for _, l := range h.links {
		l.FoldState(d)
	}
	d.Bool(h.finished)
	if h.coll != nil {
		h.coll.FoldState(d)
	}
}

// Save writes a replay-anchored checkpoint of the cell to w. Save
// before Result: a finalized cell has drained its flows and is not a
// resumable state.
func (h *Harness) Save(w io.Writer) error {
	if h.finished {
		return fmt.Errorf("reflection: cannot checkpoint a finalized harness")
	}
	return checkpoint.Save(w, CheckpointKind, cell{h.cfg, h.variant.Name}, encodeCell, h.engine.Now(), h)
}

// Restore rebuilds a cell from a checkpoint written by Save — the
// variant by name through NewVariant — and replays it to the
// checkpointed instant (see checkpoint.Restore). attach sets Trace,
// Metrics and an empty Collector on the decoded configuration.
func Restore(r io.Reader, attach func(*Config)) (*Harness, error) {
	return checkpoint.Restore(r, CheckpointKind, decodeCell,
		func(c *cell) {
			if attach != nil {
				attach(&c.cfg)
			}
		},
		func(c cell) (*Harness, error) {
			v, err := NewVariant(c.variant)
			if err != nil {
				return nil, fmt.Errorf("reflection: checkpoint names unknown variant: %w", err)
			}
			return NewHarness(c.cfg, v), nil
		})
}

// cell is what a reflection checkpoint records: the configuration and
// the variant's registry name.
type cell struct {
	cfg     Config
	variant string
}

func encodeCell(e *checkpoint.Encoder, c cell) {
	encodeConfig(e, c.cfg)
	e.Str(c.variant)
}

func decodeCell(d *checkpoint.Decoder) cell {
	cfg := decodeConfig(d)
	return cell{cfg, d.Str()}
}

// resultCheckpointer persists completed sweep cells (full delay and
// jitter distributions) for resumable Fig. 4 sweeps.
func resultCheckpointer(path, kind string) sweep.Checkpointer[Result] {
	return sweep.Checkpointer[Result]{
		Path: path,
		Kind: kind,
		Encode: func(e *checkpoint.Encoder, r Result) {
			e.Str(r.Variant)
			e.Int(r.Flows)
			e.F64Slice(r.Delays.Samples())
			e.F64Slice(r.Jitter.Samples())
			e.U64(r.RingRecords)
		},
		Decode: func(d *checkpoint.Decoder) Result {
			return Result{
				Variant:     d.Str(),
				Flows:       d.Int(),
				Delays:      metrics.NewSeriesFrom(d.F64Slice()),
				Jitter:      metrics.NewSeriesFrom(d.F64Slice()),
				RingRecords: d.U64(),
			}
		},
	}
}

// RunAllVariantsResumable is RunAllVariants with sweep-level
// checkpointing: completed variants persist to path and are skipped on
// restart.
func RunAllVariantsResumable(cfg Config, path string) ([]Result, error) {
	protos := AllVariants()
	return sweep.RunResumable(sweepWorkers(cfg), len(protos), resultCheckpointer(path, "figure4-delay"), func(i int) Result {
		return Run(cfg, protos[i].CloneFresh())
	})
}

// RunFlowSweepResumable is RunFlowSweep with sweep-level checkpointing.
func RunFlowSweepResumable(cfg Config, flowCounts []int, path string) ([]Result, error) {
	proto := NewBase()
	return sweep.RunResumable(sweepWorkers(cfg), len(flowCounts), resultCheckpointer(path, "figure4-jitter"), func(i int) Result {
		c := cfg
		c.Flows = flowCounts[i]
		return Run(c, proto.CloneFresh())
	})
}

func encodeConfig(e *checkpoint.Encoder, cfg Config) {
	e.U64(cfg.Seed)
	encodeProfile(e, cfg.Profile)
	encodeCosts(e, cfg.Costs)
	e.F64(cfg.LinkBps)
	e.I64(int64(cfg.Cycle))
	e.Int(cfg.Cycles)
	e.Int(cfg.Flows)
	e.Int(cfg.ProbeSize)
	e.I64(int64(cfg.TapCfg.TimestampStep))
	e.I64(int64(cfg.TapCfg.PassThrough))
	e.I64(int64(cfg.TapCfg.ClockOffset))
	e.Bool(cfg.INT)
}

func decodeConfig(d *checkpoint.Decoder) Config {
	return Config{
		Seed:      d.U64(),
		Profile:   decodeProfile(d),
		Costs:     decodeCosts(d),
		LinkBps:   d.F64(),
		Cycle:     sim.Duration(d.I64()),
		Cycles:    d.Int(),
		Flows:     d.Int(),
		ProbeSize: d.Int(),
		TapCfg: tap.Config{
			TimestampStep: sim.Duration(d.I64()),
			PassThrough:   sim.Duration(d.I64()),
			ClockOffset:   sim.Duration(d.I64()),
		},
		INT: d.Bool(),
	}
}

func encodeProfile(e *checkpoint.Encoder, p host.Profile) {
	e.Str(p.Name)
	e.I64(int64(p.PCIeBase))
	e.F64(p.PCIePerByteNs)
	e.I64(int64(p.NICBase))
	e.I64(int64(p.KernelBase))
	e.I64(int64(p.SchedJitterSD))
	e.F64(p.SpikeProb)
	e.I64(int64(p.SpikeScale))
	e.I64(int64(p.ContentionPerFlowSD))
}

func decodeProfile(d *checkpoint.Decoder) host.Profile {
	return host.Profile{
		Name:                d.Str(),
		PCIeBase:            sim.Duration(d.I64()),
		PCIePerByteNs:       d.F64(),
		NICBase:             sim.Duration(d.I64()),
		KernelBase:          sim.Duration(d.I64()),
		SchedJitterSD:       sim.Duration(d.I64()),
		SpikeProb:           d.F64(),
		SpikeScale:          sim.Duration(d.I64()),
		ContentionPerFlowSD: sim.Duration(d.I64()),
	}
}

func encodeCosts(e *checkpoint.Encoder, c ebpf.CostModel) {
	e.I64(int64(c.ALU))
	e.I64(int64(c.PktMem))
	e.I64(int64(c.StackMem))
	e.I64(int64(c.CallBase))
	e.I64(int64(c.Ktime))
	e.I64(int64(c.MapLookup))
	e.I64(int64(c.MapUpdate))
	e.I64(int64(c.RingbufOutput))
	e.F64(c.RingbufWakeProb)
	e.I64(int64(c.RingbufWakeCost))
	e.I64(int64(c.RunNoiseSD))
}

func decodeCosts(d *checkpoint.Decoder) ebpf.CostModel {
	return ebpf.CostModel{
		ALU:             sim.Duration(d.I64()),
		PktMem:          sim.Duration(d.I64()),
		StackMem:        sim.Duration(d.I64()),
		CallBase:        sim.Duration(d.I64()),
		Ktime:           sim.Duration(d.I64()),
		MapLookup:       sim.Duration(d.I64()),
		MapUpdate:       sim.Duration(d.I64()),
		RingbufOutput:   sim.Duration(d.I64()),
		RingbufWakeProb: d.F64(),
		RingbufWakeCost: sim.Duration(d.I64()),
		RunNoiseSD:      sim.Duration(d.I64()),
	}
}
