// Cache conformance: the writeback tier must be deterministic
// (byte-identical cachestudy tables at any worker count), invisible
// when disabled (a zero-capacity cache in front of an array rebuilds
// the committed replay goldens byte for byte), and actually worth its
// power draw on the committed fixture (the ≥90%-hit DRAM tier strictly
// beats the uncached baseline on IOPS/Watt at every load).  `tracer
// verify -gate cache` and the cache_golden_test.go driver re-run the
// committed fixture through CacheChecked and diff against the
// committed golden.
package check

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// CacheGoldenSuffix names the committed expected output of a cache
// fixture (separate from replay and optimize goldens so the corpora
// can share a testdata tree without colliding).
const CacheGoldenSuffix = ".cache.json"

// cacheConfig is the pinned evaluation cell for the cache gate: study
// seed 7 and the two golden loads, on the default six-disk HDD array —
// the regime where avoided disk activity is worth real watts.
func cacheConfig(workers int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Seed = 7
	cfg.Loads = []float64{0.5, 1.0}
	cfg.Workers = workers
	return cfg
}

// cacheGoldenKind is the backing array the cache gate runs against.
const cacheGoldenKind = experiments.HDDArray

// cacheStudySpecs are the committed study columns: the uncached
// baseline, the plain DRAM tier the acceptance gate reads, a DRAM
// variant exercising the 2Q/bypass policies, and an SSD tier.
func cacheStudySpecs() []experiments.CacheSpec {
	return []experiments.CacheSpec{
		{},
		{Tier: cache.TierDRAM, CapacityMB: 32},
		{Tier: cache.TierDRAM, CapacityMB: 32, Eviction: "2q", Admission: "bypass-seq"},
		{Tier: cache.TierSSD, CapacityMB: 256},
	}
}

// cacheGateSpec is the study column the hit-rate and strictly-beats
// assertions read (the plain DRAM tier above).
func cacheGateSpec() experiments.CacheSpec {
	return cacheStudySpecs()[1]
}

// CacheFixtureTrace synthesises the committed cache fixture: ten
// virtual minutes of web traffic over a 4 MiB footprint — 64 cache
// extents, so a 32 MiB DRAM tier converges to a ≥90% hit rate while
// the backing disks still see enough traffic for the power delta to
// be measurable.
func CacheFixtureTrace() *blktrace.Trace {
	wp := synth.DefaultWebServer()
	wp.Seed = 42
	wp.Duration = 10 * simtime.Minute
	wp.MeanIOPS = 4
	wp.FootprintBytes = 4 << 20
	return synth.WebServerTrace(wp)
}

// CacheGolden is the committed expected output for one cache fixture.
type CacheGolden struct {
	Name  string    `json:"name"`
	Trace TraceInfo `json:"trace"`
	Kind  string    `json:"kind"`
	Seed  uint64    `json:"seed"`
	Loads []float64 `json:"loads"`
	// Rows is the full cachestudy Pareto table, one row per
	// (spec, load) cell in study order.
	Rows []experiments.CacheStudyRow `json:"rows"`
}

// CacheChecked runs the full conformance gate on trace and returns the
// golden document to commit:
//
//   - the cachestudy table must be byte-identical at workers 1, 2, 8;
//   - the DRAM gate column must hit ≥90% and strictly beat the
//     uncached baseline on IOPS/Watt at every load;
//   - a checked replay through the DRAM tier must pass the invariant
//     suite (write conservation, no dirty extent lost, backing-array
//     algebra, energy conservation).
func CacheChecked(name string, trace *blktrace.Trace) (*CacheGolden, error) {
	g := &CacheGolden{
		Name:  name,
		Trace: traceInfo(trace),
		Kind:  cacheGoldenKind.String(),
		Seed:  cacheConfig(1).Seed,
		Loads: cacheConfig(1).Loads,
	}

	// Determinism across worker counts.
	var blob []byte
	for _, w := range gateWorkerCounts {
		rows, err := experiments.CacheStudy(cacheConfig(w), cacheGoldenKind, trace, cacheStudySpecs())
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return nil, err
		}
		if blob == nil {
			g.Rows, blob = rows, b
		} else if !bytes.Equal(blob, b) {
			return nil, fmt.Errorf("cachestudy not deterministic: workers %d and %d disagree", gateWorkerCounts[0], w)
		}
	}

	// The tier must earn its power draw: at every load the plain DRAM
	// column hits ≥90% and strictly beats the uncached baseline.
	gate := cacheGateSpec().Label()
	for _, load := range g.Loads {
		var base, dram *experiments.CacheStudyRow
		for i := range g.Rows {
			r := &g.Rows[i]
			if r.Load != load {
				continue
			}
			switch r.Spec {
			case "uncached":
				base = r
			case gate:
				dram = r
			}
		}
		if base == nil || dram == nil {
			return nil, fmt.Errorf("study table missing uncached or %s row at load %v", gate, load)
		}
		if dram.HitRate < 0.9 {
			return nil, fmt.Errorf("%s hit rate %.4f below 0.9 at load %v", gate, dram.HitRate, load)
		}
		if dram.IOPSPerWatt <= base.IOPSPerWatt {
			return nil, fmt.Errorf("%s IOPS/Watt %.6g does not beat uncached %.6g at load %v",
				gate, dram.IOPSPerWatt, base.IOPSPerWatt, load)
		}
	}

	// Live invariant pass through the DRAM tier.
	cfg := cacheConfig(1)
	engine, c, _, err := experiments.NewCachedSystem(cfg, cacheGoldenKind, cacheGateSpec())
	if err != nil {
		return nil, err
	}
	res, err := ReplayChecked(engine, c, trace, Options{})
	if err != nil {
		return nil, err
	}
	if err := res.Report.Err(); err != nil {
		return nil, fmt.Errorf("cached replay invariants: %w", err)
	}
	return g, nil
}

// BuildGoldenCached rebuilds a replay golden with a cache of the given
// spec interposed at every (kind, load) cell.  With a disabled spec
// the result must be byte-identical to BuildGolden's — the pass-through
// gate VerifyCache runs over the committed replay corpus.
func BuildGoldenCached(name string, trace *blktrace.Trace, spec experiments.CacheSpec) (*Golden, error) {
	return buildGolden(name, trace, func(cfg experiments.Config, kind experiments.ArrayKind, load float64) (*Result, *raid.Array, error) {
		engine, c, array, err := experiments.NewCachedSystem(cfg, kind, spec)
		if err != nil {
			return nil, nil, err
		}
		res, err := ReplayChecked(engine, c, trace, Options{Load: load})
		return res, array, err
	})
}

// CompareCacheGolden diffs got against want: strings and integers
// exactly, floats within tol.  One human-readable line per mismatch.
func CompareCacheGolden(want, got *CacheGolden, tol float64) []string {
	d := &differ{tol: tol}
	d.trace(want.Trace, got.Trace)
	d.strf("kind", want.Kind, got.Kind)
	d.intf("seed", int64(want.Seed), int64(got.Seed))
	if len(want.Rows) != len(got.Rows) {
		d.addf("rows: want %d, got %d", len(want.Rows), len(got.Rows))
		return d.lines
	}
	for i := range want.Rows {
		w, g := &want.Rows[i], &got.Rows[i]
		pfx := fmt.Sprintf("rows[%d] (%s load %v)", i, w.Spec, w.Load)
		if w.Spec != g.Spec || w.Tier != g.Tier {
			d.addf("%s: spec changed to %s/%s", pfx, g.Spec, g.Tier)
			continue
		}
		d.fltf(pfx+".load", w.Load, g.Load)
		d.fltf(pfx+".hit_rate", w.HitRate, g.HitRate)
		d.fltf(pfx+".iops", w.IOPS, g.IOPS)
		d.fltf(pfx+".mean_watts", w.MeanWatts, g.MeanWatts)
		d.fltf(pfx+".iops_per_watt", w.IOPSPerWatt, g.IOPSPerWatt)
		d.fltf(pfx+".mean_ms", w.MeanMs, g.MeanMs)
		d.fltf(pfx+".p99_ms", w.P99Ms, g.P99Ms)
		d.fltf(pfx+".energy_j", w.EnergyJ, g.EnergyJ)
		d.intf(pfx+".hits", w.Hits, g.Hits)
		d.intf(pfx+".misses", w.Misses, g.Misses)
		d.intf(pfx+".writebacks", w.Writebacks, g.Writebacks)
		d.intf(pfx+".writeback_bytes", w.WritebackBytes, g.WritebackBytes)
	}
	return d.lines
}

// VerifyCache runs the cache conformance pass:
//
//  1. Pass-through gate: every committed replay golden under corpusDir
//     is rebuilt with a zero-capacity cache interposed and must match
//     the committed JSON byte for byte — the disabled tier is invisible.
//  2. Fixture gate: every *.trace.txt under dir runs through
//     CacheChecked and is diffed against the committed *.cache.json.
//     With opts.Update the JSON is rewritten instead, and the canonical
//     fixture trace is bootstrapped if the directory is empty.
//
// On the first fixture diff failure a full telemetry export of the
// DRAM gate cell lands in opts.TelemetryDir (the artifact CI uploads).
func VerifyCache(dir, corpusDir string, opts VerifyOptions, out io.Writer) error {
	t := &tally{out: out}
	if corpusDir != "" {
		paths, err := filepath.Glob(filepath.Join(corpusDir, "*"+TraceSuffix))
		if err != nil {
			return err
		}
		sort.Strings(paths)
		for _, tracePath := range paths {
			verifyPassThrough(tracePath, t)
		}
	}
	err := fixtureGate[*CacheGolden]{
		label:     "verify cache",
		suffix:    CacheGoldenSuffix,
		bootstrap: CacheFixtureTrace,
		build:     CacheChecked,
		compare:   CompareCacheGolden,
		summary:   func(g *CacheGolden) string { return fmt.Sprintf("%d rows", len(g.Rows)) },
		artifact: func(dir, name string, trace *blktrace.Trace, _ *CacheGolden, out io.Writer) {
			writeCacheFailureTelemetry(dir, name, trace, out)
		},
	}.run(dir, opts, t)
	if err != nil {
		return err
	}
	return t.err("verify cache", "checks")
}

// verifyPassThrough rebuilds one committed replay golden through a
// zero-capacity cache and requires the committed bytes back.  A trace
// without a committed golden has nothing to cross-check.
func verifyPassThrough(tracePath string, t *tally) {
	base := strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
	goldenPath := strings.TrimSuffix(tracePath, TraceSuffix) + GoldenSuffix
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return
	}
	t.total++
	name := "passthrough/" + base
	trace, err := LoadFixtureTrace(tracePath)
	if err != nil {
		t.fail(name, err)
		return
	}
	g, err := BuildGoldenCached(base, trace, experiments.CacheSpec{})
	if err != nil {
		t.fail(name, err)
		return
	}
	got, err := marshalGolden(g)
	if err != nil {
		t.fail(name, err)
		return
	}
	if !bytes.Equal(want, got) {
		t.fail(name, fmt.Errorf("zero-capacity cache output differs from committed %s", filepath.Base(goldenPath)))
		return
	}
	fmt.Fprintf(t.out, "PASS %s (byte-identical)\n", name)
}

// writeCacheFailureTelemetry re-runs a failing fixture's DRAM gate
// cell with full instrumentation (cache probes, tier power channel)
// and exports the artifact directory.  Export problems are reported
// but never mask the verification failure.
func writeCacheFailureTelemetry(dir, name string, trace *blktrace.Trace, out io.Writer) {
	set := telemetry.New(telemetry.Options{})
	cfg := cacheConfig(1)
	load := cfg.Loads[len(cfg.Loads)-1]
	if _, err := experiments.MeasureCachedAtLoad(cfg, cacheGoldenKind, cacheGateSpec(), trace, load, set); err != nil {
		fmt.Fprintf(out, "  telemetry capture for %s failed: %v\n", name, err)
		return
	}
	if err := set.WriteDir(dir); err != nil {
		fmt.Fprintf(out, "  telemetry export for %s failed: %v\n", name, err)
		return
	}
	fmt.Fprintf(out, "  telemetry for %s (%s load %v) written to %s\n", name, cacheGateSpec().Label(), load, dir)
}
