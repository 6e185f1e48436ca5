package check

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// -update regenerates the committed golden JSON documents:
//
//	go test ./internal/check -run TestGoldenCorpus -update
var update = flag.Bool("update", false, "rewrite golden fixture outputs instead of diffing")

// TestGoldenCorpus re-runs every committed fixture and diffs against
// the committed outputs (or regenerates them under -update).
func TestGoldenCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := VerifyGolden("testdata/golden", VerifyOptions{Update: *update, Tol: DefaultTol}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !*update && strings.Count(buf.String(), "PASS") < 3 {
		t.Fatalf("corpus smaller than expected:\n%s", buf.String())
	}
}

// copyCorpusTraces copies only the fixture traces (not the goldens)
// into a fresh directory.
func copyCorpusTraces(t *testing.T, dst string) int {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata/golden", "*"+TraceSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus traces: %v", err)
	}
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return len(paths)
}

// TestGoldenUpdateRegenerates exercises the full -update flow against a
// scratch copy of the corpus: regeneration creates goldens that then
// verify clean, and a tampered golden is caught with a field-level
// diff.
func TestGoldenUpdateRegenerates(t *testing.T) {
	dir := t.TempDir()
	n := copyCorpusTraces(t, dir)

	// Verifying without goldens fails and points at -update.
	if err := VerifyGolden(dir, VerifyOptions{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("missing goldens not reported: %v", err)
	}

	var buf bytes.Buffer
	if err := VerifyGolden(dir, VerifyOptions{Update: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "UPDATED"); got != n {
		t.Fatalf("updated %d of %d fixtures:\n%s", got, n, buf.String())
	}
	if err := VerifyGolden(dir, VerifyOptions{}, &bytes.Buffer{}); err != nil {
		t.Fatalf("freshly regenerated corpus does not verify: %v", err)
	}

	// Tamper one golden: a 1% IOPS shift must be flagged.
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenSuffix))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens written: %v", err)
	}
	g, err := readGolden[*Golden](goldens[0])
	if err != nil {
		t.Fatal(err)
	}
	g.Runs[0].IOPS *= 1.01
	if err := writeGolden(goldens[0], g); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = VerifyGolden(dir, VerifyOptions{}, &buf)
	if err == nil || !strings.Contains(buf.String(), ".iops") {
		t.Fatalf("tampered golden not caught: err=%v\n%s", err, buf.String())
	}
}

// TestCompareGoldenTolerance pins the tolerance policy: floats within
// the relative tolerance pass, floats beyond it and any integer change
// fail.
func TestCompareGoldenTolerance(t *testing.T) {
	base := &Golden{
		Name:  "x",
		Trace: TraceInfo{Device: "d", Bunches: 2, IOs: 4, TotalBytes: 4096, DurationNs: 100},
		Runs: []GoldenRun{{
			Kind: "raid5-hdd", Load: 1, Issued: 4, Completed: 4, Bytes: 4096,
			IOPS: 100, MeanWatts: 50.5, EnergyJ: 12.25, DiskWrites: 8,
		}},
	}
	clone := *base
	runs := make([]GoldenRun, len(base.Runs))
	copy(runs, base.Runs)
	clone.Runs = runs

	clone.Runs[0].IOPS = base.Runs[0].IOPS * (1 + 1e-8)
	if diffs := CompareGolden(base, &clone, DefaultTol); len(diffs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", diffs)
	}
	clone.Runs[0].IOPS = base.Runs[0].IOPS * (1 + 1e-4)
	if diffs := CompareGolden(base, &clone, DefaultTol); len(diffs) != 1 {
		t.Fatalf("out-of-tolerance drift missed: %v", diffs)
	}
	clone.Runs[0].IOPS = base.Runs[0].IOPS
	clone.Runs[0].DiskWrites++
	if diffs := CompareGolden(base, &clone, DefaultTol); len(diffs) != 1 {
		t.Fatalf("integer drift not exact-compared: %v", diffs)
	}
}

// TestVerifyGoldenEmptyDir requires a non-empty corpus.
func TestVerifyGoldenEmptyDir(t *testing.T) {
	if err := VerifyGolden(t.TempDir(), VerifyOptions{}, &bytes.Buffer{}); err == nil {
		t.Fatal("empty corpus passed")
	}
}

// TestVerifyGoldenTruncatedFixture is the regression for the
// truncated-trace satellite: a fixture cut mid-bunch must surface as a
// labelled error naming the file, not a panic.
func TestVerifyGoldenTruncatedFixture(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "cut"+TraceSuffix)
	text := "# blktrace-text v1\ndevice cut\nB 0 3\n0 4096 R\n8 4096 R\n"
	if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	err := VerifyGolden(dir, VerifyOptions{}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "cut"+TraceSuffix) {
		t.Fatalf("truncated fixture not labelled: %v", err)
	}
}

// TestVerifyGoldenContinuesPastFailure pins the partial-failure
// contract: one broken fixture must not stop the rest of the corpus
// from verifying, and the summary error counts every failure.
func TestVerifyGoldenContinuesPastFailure(t *testing.T) {
	dir := t.TempDir()
	n := copyCorpusTraces(t, dir)
	if err := VerifyGolden(dir, VerifyOptions{Update: true}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// An unreadable fixture sorted first must not shadow the healthy rest.
	bad := filepath.Join(dir, "aaa-cut"+TraceSuffix)
	text := "# blktrace-text v1\ndevice cut\nB 0 3\n0 4096 R\n8 4096 R\n"
	if err := os.WriteFile(bad, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := VerifyGolden(dir, VerifyOptions{}, &buf)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("1 of %d fixtures failed", n+1)) {
		t.Fatalf("summary error = %v", err)
	}
	if got := strings.Count(buf.String(), "PASS"); got != n {
		t.Fatalf("healthy fixtures after the broken one: %d PASS, want %d\n%s", got, n, buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL aaa-cut") {
		t.Fatalf("broken fixture not reported:\n%s", buf.String())
	}
}

// TestVerifyGoldenFailureTelemetry checks the diagnostic export: a
// diff failure with TelemetryDir set leaves a parseable artifact
// directory for the first failing fixture.
func TestVerifyGoldenFailureTelemetry(t *testing.T) {
	dir := t.TempDir()
	copyCorpusTraces(t, dir)
	if err := VerifyGolden(dir, VerifyOptions{Update: true}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob(filepath.Join(dir, "*"+GoldenSuffix))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no goldens written: %v", err)
	}
	g, err := readGolden[*Golden](goldens[0])
	if err != nil {
		t.Fatal(err)
	}
	g.Runs[0].Completed++
	if err := writeGolden(goldens[0], g); err != nil {
		t.Fatal(err)
	}
	telDir := filepath.Join(t.TempDir(), "telemetry")
	var buf bytes.Buffer
	if err := VerifyGolden(dir, VerifyOptions{TelemetryDir: telDir}, &buf); err == nil {
		t.Fatal("tampered corpus passed")
	}
	sum, err := telemetry.ReadSummary(telDir)
	if err != nil {
		t.Fatalf("failure telemetry not written: %v\n%s", err, buf.String())
	}
	if sum.Spans == 0 {
		t.Fatalf("failure telemetry has no spans: %+v", sum)
	}
	if !strings.Contains(buf.String(), telDir) {
		t.Fatalf("telemetry path not reported:\n%s", buf.String())
	}
}
