package check

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/blktrace"

	"repro/internal/experiments"
)

// TestGoldenRoundTripFidelity is the acceptance gate for the workload
// characterization subsystem: for every golden corpus trace,
// analyze → synthesize → replay on the golden HDD array must agree
// with the original trace's replay within 10% on IOPS, MBPS, IOPS/Watt
// and MBPS/Kilowatt.
func TestGoldenRoundTripFidelity(t *testing.T) {
	var buf bytes.Buffer
	if err := VerifyFidelity("testdata/golden", 1, DefaultFidelityTol, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if got := strings.Count(buf.String(), "PASS"); got != 3 {
		t.Fatalf("expected 3 fixture passes, got %d:\n%s", got, buf.String())
	}
}

// The SSD array must also round-trip: same traces, different physics.
func TestRoundTripFidelitySSD(t *testing.T) {
	trace, err := LoadFixtureTrace("testdata/golden/mixed-rw.trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RoundTripFidelity(trace, "mixed-rw", experiments.SSDArray, 1, DefaultFidelityTol)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells: %+v", res.Cells)
	}
}

func TestVerifyFidelityEmptyCorpus(t *testing.T) {
	var buf bytes.Buffer
	if err := VerifyFidelity(t.TempDir(), 1, 0, &buf); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

// TestVerifyFidelityContinuesPastFailure: a truncated fixture sorted
// first is tallied, and the good fixture after it still round-trips and
// prints its PASS line.
func TestVerifyFidelityContinuesPastFailure(t *testing.T) {
	dir := t.TempDir()
	cut := "# blktrace-text v1\ndevice cut\nB 0 3\n0 4096 R\n8 4096 R\n"
	if err := os.WriteFile(filepath.Join(dir, "aaa-cut"+TraceSuffix), []byte(cut), 0o644); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile("testdata/golden/mixed-rw" + TraceSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "mixed-rw"+TraceSuffix), good, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = VerifyFidelity(dir, 1, DefaultFidelityTol, &buf)
	if err == nil || !strings.Contains(err.Error(), "1 of 2") || !errors.Is(err, blktrace.ErrBadFormat) {
		t.Fatalf("summary error = %v", err)
	}
	if !strings.Contains(buf.String(), "FAIL aaa-cut") || !strings.Contains(buf.String(), "PASS mixed-rw") {
		t.Fatalf("fidelity output:\n%s", buf.String())
	}
}
