// Optimize conformance: the policy-search harness must be
// deterministic (byte-identical winner and ledger at any worker count
// and across same-seed runs) and must actually optimize (the grid
// winner strictly beats the paper-default configuration on the
// committed fixture).  `tracer verify -gate optimize` and the
// optimize_test.go driver re-run the committed fixture through
// OptimizeChecked and diff against the committed golden.
package check

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/optimize"
	"repro/internal/simtime"
	"repro/internal/synth"
)

// OptimizeGoldenSuffix names the committed expected output of an
// optimize fixture (separate from replay goldens so the two corpora
// can share a testdata tree without colliding).
const OptimizeGoldenSuffix = ".optimize.json"

// optimizeSpaces are the committed search spaces the golden pins: a
// small TPM timeout sweep spanning aggressive/default/lazy, and the
// full DRPM step-down x level-count grid.
func optimizeSpaces() []optimize.Space {
	return []optimize.Space{
		{Policy: "tpm", Dims: []optimize.Dim{
			{Name: "timeout_s", Values: []float64{2, 10, 60}},
		}},
		{Policy: "drpm", Dims: []optimize.Dim{
			{Name: "stepdown_s", Values: []float64{1, 2, 5}},
			{Name: "levels", Values: []float64{2, 3, 4}},
		}},
	}
}

// optimizeOptions is the pinned evaluation cell: study seed 7, quarter
// load — idle-heavy enough that conservation genuinely trades energy
// against tail latency, so the search has a real landscape to climb.
func optimizeOptions(workers int) optimize.Options {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	return optimize.Options{Config: cfg, Load: 0.25, Workers: workers}
}

// optimizeEvolveOptions sizes the evolutionary gate run: small enough
// to stay cheap, large enough to cross generations (breeding is where
// nondeterminism would hide).
func optimizeEvolveOptions(workers int) optimize.EvolveOptions {
	return optimize.EvolveOptions{
		Options:     optimizeOptions(workers),
		Generations: 4,
		Population:  6,
		Seed:        11,
	}
}

// OptimizeFixtureTrace synthesises the committed idle-heavy fixture:
// ten virtual minutes of sparse web traffic (mean 0.5 IOPS) whose idle
// gaps straddle the spin-down break-even point.
func OptimizeFixtureTrace() *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = 42
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 0.5
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

// OptimizePolicyGolden pins one policy's search outcome.
type OptimizePolicyGolden struct {
	Policy string         `json:"policy"`
	Space  optimize.Space `json:"space"`
	Cells  int            `json:"cells"`

	// Baseline is the paper-default configuration; Best the grid
	// winner, which must strictly beat it; EvolveBest the evolutionary
	// winner on the same space.
	Baseline   optimize.Eval `json:"baseline"`
	Best       optimize.Eval `json:"best"`
	BestIndex  int           `json:"best_index"`
	EvolveBest optimize.Eval `json:"evolve_best"`

	// LedgerDecisions counts the winner's recorded decisions per kind —
	// the integer fingerprint of the decision stream (exact-compared;
	// timestamps stay out of the golden so FMA variation across
	// architectures cannot flake it).
	LedgerDecisions map[string]int64 `json:"ledger_decisions"`
}

// OptimizeGolden is the committed expected output for one optimize
// fixture trace.
type OptimizeGolden struct {
	Name     string                 `json:"name"`
	Trace    TraceInfo              `json:"trace"`
	Load     float64                `json:"load"`
	Seed     uint64                 `json:"seed"`
	Weights  optimize.Weights       `json:"weights"`
	Policies []OptimizePolicyGolden `json:"policies"`

	// Ledgers maps policy name to the grid winner's recorded run.  It is
	// not committed: a verify failure exports it as the ledger artifact
	// without re-running the search.
	Ledgers map[string]optimize.RecordedRun `json:"-"`
}

// marshalSearch canonicalises a search result for byte comparison.
func marshalSearch(res *optimize.SearchResult) ([]byte, error) {
	return json.Marshal(res)
}

// OptimizeChecked runs the full conformance gate for every committed
// policy space on trace and returns the golden document to commit:
//
//   - the grid search must be byte-identical at workers 1, 2 and 8;
//   - the evolutionary search must be byte-identical at those worker
//     counts and across two same-seed runs;
//   - recording the grid winner twice must produce byte-identical
//     ledgers;
//   - the grid winner's fitness must strictly beat the paper-default
//     baseline (the search must optimize, not just enumerate).
func OptimizeChecked(ctx context.Context, name string, trace *blktrace.Trace) (*OptimizeGolden, error) {
	opts := optimizeOptions(gateWorkerCounts[0])
	g := &OptimizeGolden{
		Name:    name,
		Trace:   traceInfo(trace),
		Load:    opts.Load,
		Seed:    opts.Config.Seed,
		Weights: optimize.DefaultWeights(),
		Ledgers: map[string]optimize.RecordedRun{},
	}
	for _, space := range optimizeSpaces() {
		pg, run, err := optimizePolicyChecked(ctx, space, trace)
		if err != nil {
			return nil, fmt.Errorf("optimize %s: %w", space.Policy, err)
		}
		g.Policies = append(g.Policies, *pg)
		g.Ledgers[space.Policy] = run
	}
	return g, nil
}

// optimizePolicyChecked gates one policy space and builds its golden
// entry.
func optimizePolicyChecked(ctx context.Context, space optimize.Space, trace *blktrace.Trace) (*OptimizePolicyGolden, optimize.RecordedRun, error) {
	var none optimize.RecordedRun

	// Grid determinism across worker counts.
	var grid *optimize.SearchResult
	var gridBlob []byte
	for _, w := range gateWorkerCounts {
		res, err := optimize.Grid(ctx, space, trace, optimizeOptions(w))
		if err != nil {
			return nil, none, err
		}
		blob, err := marshalSearch(res)
		if err != nil {
			return nil, none, err
		}
		if gridBlob == nil {
			grid, gridBlob = res, blob
		} else if !bytes.Equal(gridBlob, blob) {
			return nil, none, fmt.Errorf("grid search not deterministic: workers %d and %d disagree", gateWorkerCounts[0], w)
		}
	}

	// Evolutionary determinism across worker counts and same-seed runs.
	var evolve *optimize.SearchResult
	var evolveBlob []byte
	for _, w := range gateWorkerCounts {
		for run := 0; run < 2; run++ {
			res, err := optimize.Evolve(ctx, space, trace, optimizeEvolveOptions(w))
			if err != nil {
				return nil, none, err
			}
			blob, err := marshalSearch(res)
			if err != nil {
				return nil, none, err
			}
			if evolveBlob == nil {
				evolve, evolveBlob = res, blob
			} else if !bytes.Equal(evolveBlob, blob) {
				return nil, none, fmt.Errorf("evolutionary search not deterministic: workers %d run %d disagrees with workers %d run 0", w, run, gateWorkerCounts[0])
			}
		}
	}

	// Winner ledger determinism: record the grid winner twice.
	opts := optimizeOptions(gateWorkerCounts[0])
	var run optimize.RecordedRun
	var ledgerBlob []byte
	for i := 0; i < 2; i++ {
		ev, decisions, err := optimize.Record(opts, grid.Best.Point, trace)
		if err != nil {
			return nil, none, err
		}
		h := optimize.LedgerHeader{
			Policy: grid.Best.Point.Policy,
			Params: grid.Best.Point.Params,
			Load:   opts.Load,
			Seed:   opts.Config.Seed,
		}
		var buf bytes.Buffer
		if err := optimize.WriteLedger(&buf, h, decisions); err != nil {
			return nil, none, err
		}
		if ledgerBlob == nil {
			run = optimize.RecordedRun{Header: h, Eval: ev, Decisions: decisions}
			ledgerBlob = buf.Bytes()
		} else if !bytes.Equal(ledgerBlob, buf.Bytes()) {
			return nil, none, fmt.Errorf("winner ledger not deterministic across reruns")
		}
	}

	// The search must optimize: strictly beat the paper defaults.
	baseline, err := optimize.Baseline(opts, space.Policy, trace)
	if err != nil {
		return nil, none, err
	}
	if grid.Best.Fitness <= baseline.Fitness {
		return nil, none, fmt.Errorf("grid winner %s fitness %.6g does not beat paper-default %.6g",
			grid.Best.Point, grid.Best.Fitness, baseline.Fitness)
	}

	counts := map[string]int64{}
	for _, d := range run.Decisions {
		counts[string(d.Kind)]++
	}
	return &OptimizePolicyGolden{
		Policy:          space.Policy,
		Space:           space,
		Cells:           grid.Cells,
		Baseline:        baseline,
		Best:            grid.Best,
		BestIndex:       grid.BestIndex,
		EvolveBest:      evolve.Best,
		LedgerDecisions: counts,
	}, run, nil
}

// eval diffs one evaluation: point identity and integer objectives
// exactly, float objectives within tol.
func (d *differ) eval(pfx string, want, got optimize.Eval) {
	d.strf(pfx+".point", want.Point.String(), got.Point.String())
	d.fltf(pfx+".fitness", want.Fitness, got.Fitness)
	d.fltf(pfx+".iops", want.Objectives.IOPS, got.Objectives.IOPS)
	d.fltf(pfx+".mean_watts", want.Objectives.MeanWatts, got.Objectives.MeanWatts)
	d.fltf(pfx+".energy_j", want.Objectives.EnergyJ, got.Objectives.EnergyJ)
	d.fltf(pfx+".iops_per_watt", want.Objectives.IOPSPerWatt, got.Objectives.IOPSPerWatt)
	d.fltf(pfx+".p99_ms", want.Objectives.P99Ms, got.Objectives.P99Ms)
	d.fltf(pfx+".mean_ms", want.Objectives.MeanMs, got.Objectives.MeanMs)
	d.intf(pfx+".spin_ups", want.Objectives.SpinUps, got.Objectives.SpinUps)
	d.intf(pfx+".rpm_shifts", want.Objectives.RPMShifts, got.Objectives.RPMShifts)
}

// CompareOptimizeGolden diffs got against want: integers and points
// exactly, floats within tol.  One human-readable line per mismatch.
func CompareOptimizeGolden(want, got *OptimizeGolden, tol float64) []string {
	d := &differ{tol: tol}
	d.trace(want.Trace, got.Trace)
	d.fltf("load", want.Load, got.Load)
	d.intf("seed", int64(want.Seed), int64(got.Seed))
	if want.Weights != got.Weights {
		d.addf("weights: want %+v, got %+v", want.Weights, got.Weights)
	}
	if len(want.Policies) != len(got.Policies) {
		d.addf("policies: want %d, got %d", len(want.Policies), len(got.Policies))
		return d.lines
	}
	for i := range want.Policies {
		w, g := &want.Policies[i], &got.Policies[i]
		pfx := fmt.Sprintf("policies[%d] (%s)", i, w.Policy)
		if w.Policy != g.Policy {
			d.addf("%s: policy changed to %q", pfx, g.Policy)
			continue
		}
		d.intf(pfx+".cells", int64(w.Cells), int64(g.Cells))
		d.intf(pfx+".best_index", int64(w.BestIndex), int64(g.BestIndex))
		d.eval(pfx+".baseline", w.Baseline, g.Baseline)
		d.eval(pfx+".best", w.Best, g.Best)
		d.eval(pfx+".evolve_best", w.EvolveBest, g.EvolveBest)
		kinds := map[string]bool{}
		for k := range w.LedgerDecisions {
			kinds[k] = true
		}
		for k := range g.LedgerDecisions {
			kinds[k] = true
		}
		sorted := make([]string, 0, len(kinds))
		for k := range kinds {
			sorted = append(sorted, k)
		}
		sort.Strings(sorted)
		for _, k := range sorted {
			d.intf(fmt.Sprintf("%s.ledger_decisions[%s]", pfx, k), w.LedgerDecisions[k], g.LedgerDecisions[k])
		}
	}
	return d.lines
}

// VerifyOptimize re-runs every *.trace.txt fixture under dir through
// the OptimizeChecked gate and diffs against the committed
// *.optimize.json.  With opts.Update it rewrites the JSON instead —
// and bootstraps the canonical fixture trace if the directory is
// empty.  On the first diff failure the winners' decision ledgers are
// exported to opts.TelemetryDir (the artifact CI uploads).
func VerifyOptimize(dir string, opts VerifyOptions, out io.Writer) error {
	return fixtureGate[*OptimizeGolden]{
		label:     "verify optimize",
		suffix:    OptimizeGoldenSuffix,
		bootstrap: OptimizeFixtureTrace,
		build: func(name string, trace *blktrace.Trace) (*OptimizeGolden, error) {
			return OptimizeChecked(context.Background(), name, trace)
		},
		compare: CompareOptimizeGolden,
		summary: func(g *OptimizeGolden) string { return fmt.Sprintf("%d policies", len(g.Policies)) },
		artifact: func(dir, name string, _ *blktrace.Trace, g *OptimizeGolden, out io.Writer) {
			writeLedgerArtifacts(dir, name, g, out)
		},
	}.verify(dir, opts, out)
}

// writeLedgerArtifacts exports each policy winner's decision ledger so
// a conformance break ships with the exact decision stream that
// produced it.  Export problems are reported but never mask the
// verification failure.
func writeLedgerArtifacts(dir, name string, g *OptimizeGolden, out io.Writer) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(out, "  ledger export for %s failed: %v\n", name, err)
		return
	}
	policies := make([]string, 0, len(g.Ledgers))
	for p := range g.Ledgers {
		policies = append(policies, p)
	}
	sort.Strings(policies)
	for _, p := range policies {
		run := g.Ledgers[p]
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-decisions.jsonl", name, p))
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(out, "  ledger export for %s/%s failed: %v\n", name, p, err)
			continue
		}
		err = optimize.WriteLedger(f, run.Header, run.Decisions)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(out, "  ledger export for %s/%s failed: %v\n", name, p, err)
			continue
		}
		fmt.Fprintf(out, "  ledger for %s/%s written to %s\n", name, p, path)
	}
}
