package checkpoint_test

// Golden checkpoint corpus: one small serialized checkpoint per
// experiment, committed under testdata/. TestGolden asserts both that
// today's writer reproduces the committed bytes exactly and that
// today's reader can restore them. Any format change — container
// layout, config codecs, digest fold order — trips this test; that is
// the point. To change the format deliberately:
//
//  1. bump checkpoint.FormatVersion,
//  2. add a migration path (or document the break) in DESIGN.md,
//  3. regenerate:  go test ./internal/checkpoint -run TestGolden -update
//
// Never regenerate to silence a failure you cannot explain: a golden
// diff without a code change you made on purpose means checkpoints in
// the field just became unreadable.

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"steelnet/internal/checkpoint"
	"steelnet/internal/core"
	"steelnet/internal/instaplc"
	"steelnet/internal/mltopo"
	"steelnet/internal/mlwork"
	"steelnet/internal/mrp"
	"steelnet/internal/reflection"
	"steelnet/internal/sim"
	"steelnet/internal/topo"
)

var update = flag.Bool("update", false, "rewrite the golden checkpoint corpus")

// goldenCase builds a deterministic tiny harness, checkpointed at a
// fixed instant, and restores its committed form.
type goldenCase struct {
	name    string
	kind    string
	at      sim.Time
	build   func() resumable
	restore func(r io.Reader) (resumable, error)
}

func goldenCases() []goldenCase {
	reflCfg := reflection.DefaultConfig()
	reflCfg.Cycles = 40
	mrpCfg := mrp.DefaultRingExperimentConfig()
	mrpCfg.Horizon = 700 * time.Millisecond
	mlSc := mltopo.DefaultScenario(mltopo.Ring, mlwork.ObjectIdentification, 4)
	mlSc.Horizon = 200 * time.Millisecond
	chaosCfg := core.DefaultChaosConfig()
	chaosCfg.Base = smallInstaplcConfig()
	campusCfg := core.CampusConfig{
		Seed: 11,
		Topo: topo.CampusConfig{
			Cells: 3, SwitchesPerCell: 3, HostsPerSwitch: 2,
			Spines: 2, Fanout: 2,
		},
		Horizon: 2 * sim.Millisecond,
		Period:  50 * sim.Microsecond,
		INT:     true,
		SLO:     "latency:*<15µs",
	}
	return []goldenCase{
		{
			name:    "instaplc",
			kind:    instaplc.CheckpointKind,
			at:      sim.Time(200 * sim.Millisecond),
			build:   func() resumable { return instaplc.NewHarness(smallInstaplcConfig()) },
			restore: func(r io.Reader) (resumable, error) { return instaplc.Restore(r, nil) },
		},
		{
			name:    "reflection",
			kind:    reflection.CheckpointKind,
			at:      sim.Time(30 * sim.Millisecond),
			build:   func() resumable { return reflection.NewHarness(reflCfg, reflection.NewBase()) },
			restore: func(r io.Reader) (resumable, error) { return reflection.Restore(r, nil) },
		},
		{
			name:    "mrp",
			kind:    mrp.CheckpointKind,
			at:      sim.Time(300 * sim.Millisecond),
			build:   func() resumable { return mrp.NewHarness(mrpCfg) },
			restore: func(r io.Reader) (resumable, error) { return mrp.Restore(r, nil) },
		},
		{
			name:    "mltopo",
			kind:    mltopo.CheckpointKind,
			at:      sim.Time(100 * sim.Millisecond),
			build:   func() resumable { return mltopo.NewHarness(mlSc) },
			restore: func(r io.Reader) (resumable, error) { return mltopo.Restore(r, nil) },
		},
		{
			name:    "chaos",
			kind:    instaplc.CheckpointKind,
			at:      sim.Time(200 * sim.Millisecond),
			build:   func() resumable { return core.NewChaosCellHarness(chaosCfg, 7) },
			restore: func(r io.Reader) (resumable, error) { return instaplc.Restore(r, nil) },
		},
		{
			name: "campus",
			kind: core.CampusCheckpointKind,
			at:   sim.Time(700 * sim.Microsecond),
			build: func() resumable {
				h, err := core.NewCampusHarness(campusCfg)
				if err != nil {
					panic(err)
				}
				return h
			},
			restore: func(r io.Reader) (resumable, error) {
				return core.RestoreCampus(r, func(c *core.CampusConfig) { c.Workers = 2 })
			},
		},
	}
}

// TestV2FixtureRejected pins the migration failure mode: a committed
// format-v2 file (written before the sharded-execution digest change)
// must be rejected with ErrVersion and actionable migration text, never
// silently restored against v3 replay state.
func TestV2FixtureRejected(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "v2-instaplc.ckpt"))
	if err != nil {
		t.Fatalf("missing v2 fixture (committed, never regenerated): %v", err)
	}
	f, err := checkpoint.Read(bytes.NewReader(raw))
	if err == nil {
		t.Fatalf("v2 file read as version %d without error", f.Version)
	}
	if !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"Migration", "FormatVersion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("version error lacks %q guidance:\n%v", want, err)
		}
	}
	if _, err := instaplc.Restore(bytes.NewReader(raw), nil); !errors.Is(err, checkpoint.ErrVersion) {
		t.Fatalf("harness restore of v2 file: err = %v, want ErrVersion", err)
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden-"+name+".ckpt")
}

func TestGolden(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			h := c.build()
			h.AdvanceTo(c.at)
			var buf bytes.Buffer
			if err := h.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			path := goldenPath(c.name)
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden corpus file: %v\n(generate with: go test ./internal/checkpoint -run TestGolden -update)", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("checkpoint bytes for %q no longer match the committed corpus (%d bytes written, %d committed).\n%s",
					c.name, buf.Len(), len(want), goldenMigrationHelp())
			}
			// The committed bytes must still restore: replay to the
			// recorded instant and re-verify the digest.
			h2, err := c.restore(bytes.NewReader(want))
			if err != nil {
				t.Fatalf("restoring committed corpus for %q: %v\n%s", c.name, err, goldenMigrationHelp())
			}
			if got, wantD := checkpoint.Sum(h2), checkpoint.Sum(h); got != wantD {
				t.Fatalf("restored digest %#x, want %#x", got, wantD)
			}
		})
	}
}

// TestGoldenCrossKind hands every committed golden file to every other
// kind's Restore, which must refuse it naming both kinds, and a
// truncated copy to every Restore, which must report ErrCorrupt.
func TestGoldenCrossKind(t *testing.T) {
	cases := goldenCases()
	for _, file := range cases {
		raw, err := os.ReadFile(goldenPath(file.name))
		if err != nil {
			t.Fatalf("missing golden corpus file: %v", err)
		}
		for _, c := range cases {
			if c.kind != file.kind {
				_, err := c.restore(bytes.NewReader(raw))
				if err == nil || !strings.Contains(err.Error(), strconv.Quote(file.kind)) ||
					!strings.Contains(err.Error(), strconv.Quote(c.kind)) {
					t.Errorf("%s restore of a %s file: err = %v, want one naming both kinds", c.name, file.name, err)
				}
			}
			if _, err := c.restore(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Errorf("%s restore of a truncated %s file: err = %v, want ErrCorrupt", c.name, file.name, err)
			}
		}
	}
}

// TestGoldenVersionPinned fails when FormatVersion changes without the
// corpus being regenerated: the committed files carry the version they
// were written with.
func TestGoldenVersionPinned(t *testing.T) {
	for _, c := range goldenCases() {
		raw, err := os.ReadFile(goldenPath(c.name))
		if err != nil {
			t.Fatalf("missing golden corpus file: %v\n(generate with: go test ./internal/checkpoint -run TestGolden -update)", err)
		}
		f, err := checkpoint.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("reading %s: %v\n%s", goldenPath(c.name), err, goldenMigrationHelp())
		}
		if f.Version != checkpoint.FormatVersion {
			t.Fatalf("golden corpus %q is FormatVersion %d, code is %d.\n%s",
				c.name, f.Version, checkpoint.FormatVersion, goldenMigrationHelp())
		}
	}
}

func goldenMigrationHelp() string {
	return fmt.Sprintf(`The checkpoint format changed. If that was intentional:
  1. bump checkpoint.FormatVersion (currently %d) so old files are rejected loudly,
  2. document the change (DESIGN.md, "Checkpoint & replay"),
  3. regenerate the corpus:  go test ./internal/checkpoint -run TestGolden -update
If it was NOT intentional, find the encoder/digest change that caused it:
checkpoints written by released binaries can no longer be restored.`, checkpoint.FormatVersion)
}
