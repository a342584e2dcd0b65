// Package checkpoint is the versioned, deterministic serialization
// layer under steelnet's checkpoint/restore subsystem. A checkpoint file
// carries a format version, the kind of run it snapshots, a set of named
// opaque sections, and a trailing content digest that detects truncation
// or corruption before any section is interpreted.
//
// The simulator schedules Go closures, which cannot be serialized, so
// steelnet checkpoints are replay-anchored: a checkpoint records the
// run's full configuration, the simulated instant it was taken at, and
// an incremental Digest of all live state. Restore rebuilds the scenario
// from the configuration, replays deterministically to the recorded
// instant, and verifies the replayed state digest against the recorded
// one — a mismatch fails loudly instead of resuming from a state the
// original run never had. What the digest folds per subsystem is listed
// in DESIGN.md ("Checkpoint & replay").
package checkpoint

import (
	"errors"
	"fmt"
	"io"
)

// magic identifies a steelnet checkpoint file.
var magic = [8]byte{'S', 'T', 'E', 'E', 'L', 'C', 'K', 'P'}

// FormatVersion is the current encoding version. Bump it ONLY with a
// migration path: readers reject any other version, and the golden
// corpus under testdata/ pins the byte-level encoding of every
// experiment's checkpoint against accidental drift.
//
// History:
//
//	1: initial format.
//	2: in-band telemetry. Scenario codecs gained the INT enable bit
//	   (instaplc, reflection, mltopo) and chaos cells persist
//	   INTObservations; state digests fold INT counters (per-port and
//	   per-switch INTDrops, host INT sequence numbers), so v1 digests
//	   no longer verify against replayed v2 state.
//	3: sharded execution. Every engine's state digest now begins with a
//	   shard-layout prefix (shard index, shard count, clock), shard
//	   groups fold per-shard digests in fixed shard order plus any
//	   messages held in window outboxes, and the campus experiment kind
//	   was added. v2 digests no longer verify against replayed v3
//	   state; there is no in-place migration — rerun the experiment and
//	   checkpoint again under v3.
const FormatVersion = 3

// ErrVersion wraps version-mismatch failures for errors.Is.
var ErrVersion = errors.New("checkpoint: format version mismatch")

// ErrCorrupt wraps integrity failures (bad magic, bad trailing digest,
// truncated payloads) for errors.Is.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// Section is one named opaque payload inside a checkpoint file.
type Section struct {
	Name string
	Data []byte
}

// File is a decoded checkpoint.
type File struct {
	Version  uint32
	Kind     string
	Sections []Section
}

// Section returns the named section's payload, or false.
func (f *File) Section(name string) ([]byte, bool) {
	for _, s := range f.Sections {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// Write serializes a checkpoint of the given kind to w. Sections are
// written in the order given; callers must use a fixed order so files
// are byte-stable across runs.
func Write(w io.Writer, kind string, sections []Section) error {
	e := NewEncoder()
	e.buf = append(e.buf, magic[:]...)
	e.U32(FormatVersion)
	e.Str(kind)
	e.U32(uint32(len(sections)))
	for _, s := range sections {
		e.Str(s.Name)
		e.Bytes(s.Data)
	}
	d := NewDigest()
	d.Bytes(e.Data())
	e.U64(d.Sum())
	_, err := w.Write(e.Data())
	return err
}

// Read decodes a checkpoint from r, verifying magic, version and the
// trailing content digest. A version mismatch is rejected with explicit
// migration instructions — resuming across encodings would silently
// desynchronize the restored state from the recorded digest.
func Read(r io.Reader) (*File, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	if len(raw) < len(magic)+4+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than any checkpoint", ErrCorrupt, len(raw))
	}
	for i := range magic {
		if raw[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, raw[:len(magic)])
		}
	}
	body, trailer := raw[:len(raw)-8], raw[len(raw)-8:]
	d := NewDigest()
	d.Bytes(body)
	if got := NewDecoder(trailer).U64(); got != d.Sum() {
		return nil, fmt.Errorf("%w: content digest %#x does not match trailer %#x (truncated or modified file)",
			ErrCorrupt, d.Sum(), got)
	}
	dec := NewDecoder(body[len(magic):])
	f := &File{Version: dec.U32()}
	if f.Version != FormatVersion {
		return nil, fmt.Errorf("%w: file is version %d, this build reads version %d.\n"+
			"Migration: re-create the checkpoint with a build matching its version, let the run finish\n"+
			"(or resume and re-checkpoint), then switch builds. If this file is a golden corpus entry\n"+
			"under internal/checkpoint/testdata/, the encoding drifted without a FormatVersion bump:\n"+
			"restore the old encoding, or bump FormatVersion, document the change in DESIGN.md\n"+
			"(\"Checkpoint & replay\"), and regenerate the corpus with `go test ./internal/checkpoint -run TestGolden -update`.",
			ErrVersion, f.Version, FormatVersion)
	}
	f.Kind = dec.Str()
	n := int(dec.U32())
	for i := 0; i < n && dec.Err() == nil; i++ {
		f.Sections = append(f.Sections, Section{Name: dec.Str(), Data: dec.BytesVal()})
	}
	if dec.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, dec.Err())
	}
	return f, nil
}

// Harness checkpoints — the single-run layout shared by all resumable
// experiment harnesses: a "config" section (experiment-specific
// encoding), the simulated instant the snapshot was taken at, and the
// state digest at that instant.

// WriteHarness writes a single-run harness checkpoint.
func WriteHarness(w io.Writer, kind string, config []byte, at int64, digest uint64) error {
	prog := NewEncoder()
	prog.I64(at)
	prog.U64(digest)
	return Write(w, kind, []Section{
		{Name: "config", Data: config},
		{Name: "progress", Data: prog.Data()},
	})
}

// ReadHarness reads a single-run harness checkpoint, checking the kind.
func ReadHarness(r io.Reader, wantKind string) (config []byte, at int64, digest uint64, err error) {
	f, err := Read(r)
	if err != nil {
		return nil, 0, 0, err
	}
	if f.Kind != wantKind {
		return nil, 0, 0, fmt.Errorf("checkpoint: file holds a %q checkpoint, want %q", f.Kind, wantKind)
	}
	config, ok := f.Section("config")
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: missing config section", ErrCorrupt)
	}
	prog, ok := f.Section("progress")
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: missing progress section", ErrCorrupt)
	}
	dec := NewDecoder(prog)
	at = dec.I64()
	digest = dec.U64()
	if dec.Err() != nil {
		return nil, 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, dec.Err())
	}
	return config, at, digest, nil
}

// Sum returns h's state digest at its current instant.
func Sum(h interface{ FoldState(*Digest) }) uint64 {
	d := NewDigest()
	h.FoldState(d)
	return d.Sum()
}

// Save writes a harness checkpoint of kind: cfg, serialized by encode,
// as the config section, and the instant at with h's state digest there
// as the progress section.
func Save[C any, T ~int64](w io.Writer, kind string, cfg C, encode func(*Encoder, C), at T, h interface{ FoldState(*Digest) }) error {
	e := NewEncoder()
	encode(e, cfg)
	return WriteHarness(w, kind, e.Data(), int64(at), Sum(h))
}

// Restore is the replay-anchored restore every resumable harness shares.
// It reads a harness checkpoint of kind, decodes its configuration,
// lets attach set the observational fields a checkpoint never records
// (tracer, registry, collector, worker count — nil attaches nothing),
// builds the harness, replays it to the recorded instant and compares
// its state digest with the recorded one. A mismatch returns
// *DivergenceError. Because the replay starts at time zero, freshly
// attached observers see the original run's full timeline. attach must
// not touch scenario fields: the replay would diverge and fail loudly.
func Restore[C any, T ~int64, H interface {
	FoldState(*Digest)
	AdvanceTo(T)
}](r io.Reader, kind string, decode func(*Decoder) C, attach func(*C), build func(C) (H, error)) (H, error) {
	var zero H
	raw, at, digest, err := ReadHarness(r, kind)
	if err != nil {
		return zero, err
	}
	d := NewDecoder(raw)
	cfg := decode(d)
	if err := d.Err(); err != nil {
		return zero, fmt.Errorf("%w: %s config: %v", ErrCorrupt, kind, err)
	}
	if attach != nil {
		attach(&cfg)
	}
	h, err := build(cfg)
	if err != nil {
		return zero, err
	}
	h.AdvanceTo(T(at))
	if got := Sum(h); got != digest {
		return zero, &DivergenceError{Kind: kind, At: at, Recorded: digest, Replayed: got}
	}
	return h, nil
}

// DivergenceError reports a restore whose replay did not reproduce the
// recorded state digest — the checkpoint and the current build (or
// configuration) disagree about what happened before the snapshot.
type DivergenceError struct {
	Kind     string
	At       int64
	Recorded uint64
	Replayed uint64
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("checkpoint: %s replay diverged at t=%dns: recorded state digest %#x, replayed %#x "+
		"(the binary or configuration no longer reproduces the checkpointed run)",
		e.Kind, e.At, e.Recorded, e.Replayed)
}
