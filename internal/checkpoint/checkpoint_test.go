package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	secs := []Section{
		{Name: "config", Data: []byte{1, 2, 3}},
		{Name: "progress", Data: []byte{}},
		{Name: "extra", Data: bytes.Repeat([]byte{0xab}, 300)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, "reflection", secs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	f, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if f.Version != FormatVersion || f.Kind != "reflection" {
		t.Fatalf("header = v%d kind %q", f.Version, f.Kind)
	}
	if len(f.Sections) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(f.Sections), len(secs))
	}
	for i, s := range secs {
		if f.Sections[i].Name != s.Name || !bytes.Equal(f.Sections[i].Data, s.Data) {
			t.Errorf("section %d mismatch: %q", i, f.Sections[i].Name)
		}
	}
	if _, ok := f.Section("missing"); ok {
		t.Error("Section(missing) = ok")
	}
}

func TestWriteDeterministic(t *testing.T) {
	secs := []Section{{Name: "a", Data: []byte("payload")}}
	var b1, b2 bytes.Buffer
	if err := Write(&b1, "k", secs); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b2, "k", secs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("two writes of the same checkpoint differ")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "k", []Section{{Name: "s", Data: []byte("data")}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(good); cut++ {
			if _, err := Read(bytes.NewReader(good[:len(good)-cut])); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: err = %v, want ErrCorrupt", cut, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		for i := range good {
			bad := bytes.Clone(good)
			bad[i] ^= 0x40
			_, err := Read(bytes.NewReader(bad))
			if err == nil {
				t.Fatalf("bit flip at offset %d accepted", i)
			}
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Read(bytes.NewReader(nil)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
}

func TestReadRejectsVersionDrift(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "k", nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Patch the version field (right after magic) and re-seal the trailer
	// digest so only the version check can fire.
	raw[len(magic)] = FormatVersion + 1
	body := raw[:len(raw)-8]
	d := NewDigest()
	d.Bytes(body)
	e := &Encoder{buf: body}
	e.U64(d.Sum())
	_, err := Read(bytes.NewReader(e.Data()))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
	for _, want := range []string{"Migration", "FormatVersion", "testdata"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Errorf("version error lacks %q instructions:\n%s", want, err)
		}
	}
}

func TestHarnessRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cfg := []byte("encoded-config")
	if err := WriteHarness(&buf, "instaplc", cfg, 123456789, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	gotCfg, at, dig, err := ReadHarness(bytes.NewReader(buf.Bytes()), "instaplc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCfg, cfg) || at != 123456789 || dig != 0xdeadbeefcafe {
		t.Fatalf("round trip = (%q, %d, %#x)", gotCfg, at, dig)
	}
	if _, _, _, err := ReadHarness(bytes.NewReader(buf.Bytes()), "mrp"); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.U8(7)
	e.U16(65500)
	e.U32(1 << 30)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(-7)
	e.Bool(true)
	e.Bool(false)
	e.F64(3.14159)
	e.Bytes([]byte{9, 8, 7})
	e.Str("héllo")
	e.F64Slice([]float64{1.5, -2.5})
	e.IntSlice([]int{3, -4, 5})

	d := NewDecoder(e.Data())
	if v := d.U8(); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := d.U16(); v != 65500 {
		t.Errorf("U16 = %d", v)
	}
	if v := d.U32(); v != 1<<30 {
		t.Errorf("U32 = %d", v)
	}
	if v := d.U64(); v != 1<<60 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool order wrong")
	}
	if v := d.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.BytesVal(); !bytes.Equal(v, []byte{9, 8, 7}) {
		t.Errorf("BytesVal = %v", v)
	}
	if v := d.Str(); v != "héllo" {
		t.Errorf("Str = %q", v)
	}
	if v := d.F64Slice(); len(v) != 2 || v[0] != 1.5 || v[1] != -2.5 {
		t.Errorf("F64Slice = %v", v)
	}
	if v := d.IntSlice(); len(v) != 3 || v[0] != 3 || v[1] != -4 || v[2] != 5 {
		t.Errorf("IntSlice = %v", v)
	}
	if d.Err() != nil || d.Remaining() != 0 {
		t.Fatalf("err=%v remaining=%d", d.Err(), d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	if v := d.U64(); v != 0 || d.Err() == nil {
		t.Fatalf("short U64 = %d err=%v", v, d.Err())
	}
	// Every later read must stay zero-valued with the original error.
	first := d.Err()
	if d.U8() != 0 || d.Str() != "" || d.Bool() {
		t.Error("reads after error not zero-valued")
	}
	if d.Err() != first {
		t.Error("error was replaced")
	}
}

// TestDecoderSliceLengthBounded feeds slice decoders a length prefix
// the payload cannot hold: they must fail as truncated without sizing
// an allocation from the unchecked count (1M values would be 8 MB).
func TestDecoderSliceLengthBounded(t *testing.T) {
	payload := []byte{0x00, 0x00, 0x10, 0x00}
	for name, read := range map[string]func(*Decoder) int{
		"F64Slice": func(d *Decoder) int { return len(d.F64Slice()) },
		"IntSlice": func(d *Decoder) int { return len(d.IntSlice()) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDecoder(payload)
		n := read(d)
		runtime.ReadMemStats(&after)
		if n != 0 || d.Err() == nil {
			t.Errorf("%s over a 4-byte payload: %d values, err %v; want a truncated-payload error", name, n, d.Err())
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
			t.Errorf("%s allocated %d bytes for a 4-byte payload", name, delta)
		}
	}
}

// FuzzRead feeds arbitrary bytes through Read, ReadHarness and every
// Decoder primitive. None may panic, and every Read error must wrap
// ErrCorrupt or ErrVersion. Seeds are the committed checkpoint files.
func FuzzRead(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "*.ckpt"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed checkpoints under testdata: %v", err)
	}
	for _, p := range seeds {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, err := Read(bytes.NewReader(raw)); err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
			t.Fatalf("Read error wraps neither ErrCorrupt nor ErrVersion: %v", err)
		}
		// ReadHarness may refuse any input for any reason; it must only
		// not panic.
		_, _, _, _ = ReadHarness(bytes.NewReader(raw), "instaplc")
		// The input is its own script: each byte picks the next
		// primitive, which decodes the bytes after it.
		d := NewDecoder(raw)
		for d.Err() == nil {
			switch d.U8() % 11 {
			case 0:
				d.U16()
			case 1:
				d.U32()
			case 2:
				d.U64()
			case 3:
				d.I64()
			case 4:
				d.Int()
			case 5:
				d.Bool()
			case 6:
				d.F64()
			case 7:
				d.BytesVal()
			case 8:
				d.Str()
			case 9:
				d.F64Slice()
			case 10:
				d.IntSlice()
			}
		}
	})
}

func TestDigestDistinguishesFoldShapes(t *testing.T) {
	sum := func(fold func(d *Digest)) uint64 {
		d := NewDigest()
		fold(d)
		return d.Sum()
	}
	// Length prefixes keep ("ab","c") and ("a","bc") apart.
	a := sum(func(d *Digest) { d.Str("ab"); d.Str("c") })
	b := sum(func(d *Digest) { d.Str("a"); d.Str("bc") })
	if a == b {
		t.Error("digest conflates string boundaries")
	}
	if sum(func(d *Digest) { d.U64(1) }) == sum(func(d *Digest) { d.U64(2) }) {
		t.Error("digest conflates values")
	}
	if sum(func(d *Digest) { d.Bool(true) }) == sum(func(d *Digest) { d.Bool(false) }) {
		t.Error("digest conflates booleans")
	}
	// Same fold sequence must be stable.
	if sum(func(d *Digest) { d.F64(1.5); d.Bytes([]byte{1}) }) != sum(func(d *Digest) { d.F64(1.5); d.Bytes([]byte{1}) }) {
		t.Error("digest not deterministic")
	}
}
