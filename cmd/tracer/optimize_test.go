package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/optimize"
)

// optimizeArgs is the fast two-cell TPM search shared by the CLI tests:
// a custom space keeps the grid small while still exercising the full
// search → baseline → record pipeline on the committed fixture trace
// (synthesised from its pinned seed, since tests run outside repo root).
func optimizeArgs(extra ...string) []string {
	args := []string{"optimize", "-policy", "tpm", "-space", "timeout_s=10,60", "-workers", "2"}
	return append(args, extra...)
}

func TestOptimizeCommandLedgerAndWhatIf(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, optimizeArgs("-ledger-dir", dir)...)
	if !strings.Contains(out, "tpm: winner") || !strings.Contains(out, "beats paper default") {
		t.Fatalf("optimize output missing winner line: %s", out)
	}
	if !strings.Contains(out, "| policy |") {
		t.Fatalf("optimize output missing comparison table: %s", out)
	}

	if _, err := os.Stat(filepath.Join(dir, "LEDGER.md")); err != nil {
		t.Fatalf("LEDGER.md not written: %v", err)
	}
	ledgerPath := filepath.Join(dir, "tpm-decisions.jsonl")
	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatalf("open ledger: %v", err)
	}
	h, decisions, err := optimize.ReadLedger(f)
	f.Close()
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	if h.Policy != "tpm" || len(decisions) == 0 {
		t.Fatalf("ledger header %+v with %d decisions", h, len(decisions))
	}

	list := runOK(t, "whatif", "-ledger", ledgerPath, "-list")
	if !strings.Contains(list, "replayable") {
		t.Fatalf("whatif -list output: %s", list)
	}
	lines := strings.Split(strings.TrimSpace(list), "\n")
	if len(lines) < 3 { // summary + column header + at least one decision
		t.Fatalf("whatif -list found no replayable decisions: %s", list)
	}
	seq, err := strconv.ParseInt(strings.Fields(lines[2])[0], 10, 64)
	if err != nil {
		t.Fatalf("parse seq from %q: %v", lines[2], err)
	}

	out = runOK(t, "whatif", "-ledger", ledgerPath, "-decision", strconv.FormatInt(seq, 10))
	if !strings.Contains(out, "delta (counterfactual - baseline):") {
		t.Fatalf("whatif output missing delta line: %s", out)
	}
	if !strings.Contains(out, "verdict:") {
		t.Fatalf("whatif output missing verdict: %s", out)
	}
}

func TestOptimizeCommandWorkerIdentity(t *testing.T) {
	serial := runOK(t, optimizeArgs()...)
	fanned := runOK(t, optimizeArgs()...)
	if serial != fanned {
		t.Fatalf("same-args reruns differ:\n%s\nvs\n%s", serial, fanned)
	}
	wide := runOK(t, "optimize", "-policy", "tpm", "-space", "timeout_s=10,60", "-workers", "4")
	if wide != serial {
		t.Fatalf("workers 4 output differs from workers 2:\n%s\nvs\n%s", wide, serial)
	}
}

func TestOptimizeCommandTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	out := runOK(t, optimizeArgs("-telemetry-dir", dir)...)
	if !strings.Contains(out, "telemetry artifacts written") {
		t.Fatalf("optimize output: %s", out)
	}
	for _, name := range []string{"tpm-decisions.jsonl", "optimize-table.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("telemetry artifact %s missing: %v", name, err)
		}
	}
}

func TestOptimizeEvolveDriver(t *testing.T) {
	out := runOK(t, "optimize", "-policy", "drpm", "-driver", "evolve",
		"-generations", "2", "-population", "4", "-evolve-seed", "3", "-workers", "2")
	if !strings.Contains(out, "drpm: winner") || !strings.Contains(out, "evolve") {
		t.Fatalf("evolve output: %s", out)
	}
}

func TestOptimizeBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"whatif"},                            // -ledger required
		{"whatif", "-ledger", "no-such.file"}, // missing ledger file
		{"optimize", "-driver", "warp"},
		{"optimize", "-policy", "tpm,drpm", "-space", "timeout_s=10"},
		{"optimize", "-policy", "tpm", "-space", "timeout_s=ten"},
		{"optimize", "-load", "0"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestVerifyOptimizeCommandPassesOnCommittedCorpus(t *testing.T) {
	out := runOK(t, "verify", "-gate", "optimize", "-golden", goldenCorpusDir)
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "optimize corpus verified") {
		t.Fatalf("verify -gate optimize output: %s", out)
	}
}
