package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/srt"
	"repro/internal/storage"
)

func writeSRT(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "in.srt")
	recs := []srt.Record{
		{Timestamp: 10.0, Device: "disk0", StartByte: 0, Length: 4096, Op: storage.Read},
		{Timestamp: 10.00005, Device: "disk0", StartByte: 8192, Length: 8192, Op: storage.Write},
		{Timestamp: 11.0, Device: "disk1", StartByte: 512, Length: 512, Op: storage.Read},
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srt.WriteRecords(f, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

func TestSRTConversion(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	out := filepath.Join(dir, "out.replay")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", out, "-srcdev", "disk0", "-outdev", "cello"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2 IOs") {
		t.Fatalf("output: %s", buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := blktrace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Device != "cello" || tr.NumIOs() != 2 {
		t.Fatalf("trace = %s, %d IOs", tr.Device, tr.NumIOs())
	}
}

func TestBinTextRoundTripViaCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	bin := filepath.Join(dir, "t.replay")
	txt := filepath.Join(dir, "t.txt")
	bin2 := filepath.Join(dir, "t2.replay")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", bin}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bin, "-out", txt, "-mode", "bin2text"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", txt, "-out", bin2, "-mode", "text2bin"}, &buf); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(bin2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("bin -> text -> bin round trip changed the file")
	}
}

// TestText2BinKeepsFirstDeviceLine: the first device line names the
// trace, through the converter as through blktrace.ReadText.
func TestText2BinKeepsFirstDeviceLine(t *testing.T) {
	dir := t.TempDir()
	txt := filepath.Join(dir, "t.txt")
	bin := filepath.Join(dir, "t.replay")
	if err := os.WriteFile(txt, []byte("device a\ndevice b\nB 0 1\n0 512 R\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-in", txt, "-out", bin, "-mode", "text2bin"}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := blktrace.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Device != "a" {
		t.Fatalf("label %q, want %q", tr.Device, "a")
	}
}

// TestMappedRoundTripViaCLI drives bin -> map -> bin and bin -> map ->
// text -> bin through the streaming converter and requires byte
// identity with the direct conversion.
func TestMappedRoundTripViaCLI(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	bin := filepath.Join(dir, "t.replay")
	rmap := filepath.Join(dir, "t.rmap")
	bin2 := filepath.Join(dir, "t2.replay")
	txt := filepath.Join(dir, "t.txt")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", bin}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bin, "-out", rmap, "-mode", "bin2map"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", rmap, "-out", bin2, "-mode", "map2bin"}, &buf); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(bin2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("bin -> map -> bin round trip changed the file")
	}
	if err := run([]string{"-in", rmap, "-out", txt, "-mode", "map2text"}, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := blktrace.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(txt)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trTxt, err := blktrace.ReadText(f)
	if err != nil {
		t.Fatal(err)
	}
	if trTxt.Device != tr.Device || trTxt.NumIOs() != tr.NumIOs() || trTxt.NumBunches() != tr.NumBunches() {
		t.Fatalf("map2text mismatch: %s %d/%d vs %s %d/%d", trTxt.Device, trTxt.NumIOs(), trTxt.NumBunches(),
			tr.Device, tr.NumIOs(), tr.NumBunches())
	}
}

// TestCorruptMappedInputFails is the regression gate: a truncated .rmap
// mapping must fail conversion with the labelled format error, not
// panic or produce a silently wrong output file.
func TestCorruptMappedInputFails(t *testing.T) {
	dir := t.TempDir()
	in := writeSRT(t, dir)
	bin := filepath.Join(dir, "t.replay")
	rmap := filepath.Join(dir, "t.rmap")
	var buf bytes.Buffer
	if err := run([]string{"-in", in, "-out", bin}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", bin, "-out", rmap, "-mode", "bin2map"}, &buf); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(rmap)
	if err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string][]byte{
		"truncated": good[:len(good)-5],
		"garbled":   append(append([]byte{}, good[:9]...), bytes.Repeat([]byte{0xFF}, 16)...),
	} {
		bad := filepath.Join(dir, name+".rmap")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-in", bad, "-out", filepath.Join(dir, name+".out"), "-mode", "map2bin"}, &buf)
		if !errors.Is(err, blktrace.ErrBadFormat) {
			t.Errorf("%s: got %v, want ErrBadFormat", name, err)
		}
	}
}

func TestConvErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{}, &buf); err == nil {
		t.Fatal("missing flags accepted")
	}
	if err := run([]string{"-in", "nope.srt", "-out", "x"}, &buf); err == nil {
		t.Fatal("missing input accepted")
	}
	dir := t.TempDir()
	in := writeSRT(t, dir)
	if err := run([]string{"-in", in, "-out", filepath.Join(dir, "x"), "-mode", "magic"}, &buf); err == nil {
		t.Fatal("bad mode accepted")
	}
}
