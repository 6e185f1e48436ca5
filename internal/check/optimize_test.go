package check

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/optimize"
)

// TestOptimizeCorpus re-runs the committed optimize fixture through the
// full determinism gate and diffs against the committed golden (or
// regenerates it under -update, sharing the golden corpus flag).
func TestOptimizeCorpus(t *testing.T) {
	var buf bytes.Buffer
	err := VerifyOptimize("testdata/golden/optimize", VerifyOptions{Update: *update, Tol: DefaultTol}, &buf)
	t.Log("\n" + buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !*update && !strings.Contains(buf.String(), "PASS") {
		t.Fatalf("no fixture passed:\n%s", buf.String())
	}
}

// TestOptimizeWinnerBeatsBaseline pins the acceptance criterion in the
// committed artifact itself: for every policy the golden records, the
// searched winner's fitness strictly exceeds the paper-default
// configuration's.
func TestOptimizeWinnerBeatsBaseline(t *testing.T) {
	g, err := readGolden[*OptimizeGolden](filepath.Join("testdata/golden/optimize", "idle-web"+OptimizeGoldenSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Policies) < 2 {
		t.Fatalf("golden covers %d policies, want >= 2 (tpm, drpm)", len(g.Policies))
	}
	for _, p := range g.Policies {
		if p.Best.Fitness <= p.Baseline.Fitness {
			t.Errorf("%s: winner %s fitness %.6g does not beat paper-default %.6g",
				p.Policy, p.Best.Point, p.Best.Fitness, p.Baseline.Fitness)
		}
		if len(p.LedgerDecisions) == 0 && p.Policy == "tpm" {
			t.Errorf("%s: winner ledger recorded no decisions", p.Policy)
		}
	}
}

// TestOptimizeUpdateBootstraps exercises the full -update flow from an
// empty directory: the canonical fixture trace is synthesised, the
// golden written, and the pair then verifies clean; a tampered golden
// is caught with a field-level diff and exports the winners' decision
// ledgers as the failure artifact.
func TestOptimizeUpdateBootstraps(t *testing.T) {
	dir := t.TempDir()

	// Verifying an empty directory fails and points at -update.
	if err := VerifyOptimize(dir, VerifyOptions{}, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-update") {
		t.Fatalf("empty corpus not reported: %v", err)
	}

	var buf bytes.Buffer
	if err := VerifyOptimize(dir, VerifyOptions{Update: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CREATED") || !strings.Contains(buf.String(), "UPDATED") {
		t.Fatalf("bootstrap did not create fixture + golden:\n%s", buf.String())
	}
	if err := VerifyOptimize(dir, VerifyOptions{}, &bytes.Buffer{}); err != nil {
		t.Fatalf("freshly regenerated corpus does not verify: %v", err)
	}

	goldenPath := filepath.Join(dir, "idle-web"+OptimizeGoldenSuffix)
	g, err := readGolden[*OptimizeGolden](goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	g.Policies[0].Best.Fitness *= 1.01
	if err := writeGolden(goldenPath, g); err != nil {
		t.Fatal(err)
	}
	artDir := filepath.Join(t.TempDir(), "artifacts")
	buf.Reset()
	err = VerifyOptimize(dir, VerifyOptions{TelemetryDir: artDir}, &buf)
	if err == nil || !strings.Contains(buf.String(), ".fitness") {
		t.Fatalf("tampered golden not caught: err=%v\n%s", err, buf.String())
	}
	ledgers, err := filepath.Glob(filepath.Join(artDir, "*-decisions.jsonl"))
	if err != nil || len(ledgers) == 0 {
		t.Fatalf("no ledger artifacts exported: %v\n%s", err, buf.String())
	}
	f, err := os.Open(ledgers[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, _, err := optimize.ReadLedger(f)
	if err != nil {
		t.Fatalf("exported ledger does not parse: %v", err)
	}
	if h.Policy == "" {
		t.Fatal("exported ledger header missing policy")
	}
}

// TestCompareOptimizeGoldenTolerance pins the diff policy: floats
// within relative tolerance pass, floats beyond fail, and integer
// fields (cells, decision counts, spin-ups) are always exact.
func TestCompareOptimizeGoldenTolerance(t *testing.T) {
	base := &OptimizeGolden{
		Name:  "x",
		Trace: TraceInfo{Device: "d", Bunches: 2, IOs: 4, TotalBytes: 4096, DurationNs: 100},
		Load:  0.25,
		Seed:  7,
		Policies: []OptimizePolicyGolden{{
			Policy:          "tpm",
			Cells:           3,
			BestIndex:       2,
			Best:            optimize.Eval{Point: optimize.Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 60}}, Fitness: 0.9},
			Baseline:        optimize.Eval{Point: optimize.Point{Policy: "tpm"}, Fitness: 0.3},
			LedgerDecisions: map[string]int64{"spin-down": 4, "spin-up": 2},
		}},
	}
	clone := func() *OptimizeGolden {
		blob := *base
		pols := make([]OptimizePolicyGolden, len(base.Policies))
		copy(pols, base.Policies)
		blob.Policies = pols
		counts := map[string]int64{}
		for k, v := range base.Policies[0].LedgerDecisions {
			counts[k] = v
		}
		blob.Policies[0].LedgerDecisions = counts
		return &blob
	}

	c := clone()
	c.Policies[0].Best.Fitness *= 1 + 1e-8
	if diffs := CompareOptimizeGolden(base, c, DefaultTol); len(diffs) != 0 {
		t.Fatalf("within-tolerance drift flagged: %v", diffs)
	}
	c = clone()
	c.Policies[0].Best.Fitness *= 1 + 1e-4
	if diffs := CompareOptimizeGolden(base, c, DefaultTol); len(diffs) != 1 {
		t.Fatalf("out-of-tolerance drift missed: %v", diffs)
	}
	c = clone()
	c.Policies[0].LedgerDecisions["spin-up"]++
	if diffs := CompareOptimizeGolden(base, c, DefaultTol); len(diffs) != 1 {
		t.Fatalf("decision-count drift not exact-compared: %v", diffs)
	}
	c = clone()
	c.Policies[0].Best.Point = optimize.Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 10}}
	if diffs := CompareOptimizeGolden(base, c, DefaultTol); len(diffs) != 1 {
		t.Fatalf("winner-point drift missed: %v", diffs)
	}
}

// TestOptimizeCheckedRejectsNondeterminism cannot inject real
// nondeterminism into the search, but the gate's plumbing is covered by
// the corpus test; here we pin that the gate rejects a fixture whose
// winner fails to beat the baseline (a degenerate space containing only
// the paper default).
func TestOptimizeCheckedDegenerateSpace(t *testing.T) {
	// The committed spaces always include non-default points; calling the
	// internal per-policy gate with a default-only space must fail the
	// beats-baseline criterion.
	space := optimize.Space{Policy: "tpm", Dims: []optimize.Dim{
		{Name: "timeout_s", Values: []float64{10}},
	}}
	_, _, err := optimizePolicyChecked(context.Background(), space, OptimizeFixtureTrace())
	if err == nil || !strings.Contains(err.Error(), "does not beat") {
		t.Fatalf("default-only space passed the beats-baseline gate: %v", err)
	}
}
