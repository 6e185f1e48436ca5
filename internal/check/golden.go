// Golden fixtures: small committed traces with committed replay
// outputs.  `tracer verify` and the golden_test.go driver re-run every
// fixture on the simulated arrays and diff the results against the
// committed JSON with tolerance-aware comparison; `-update` regenerates
// the JSON after an intentional model change.
package check

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/raid"
	"repro/internal/telemetry"
)

// DefaultTol is the relative tolerance for golden float comparison.
// Replay is deterministic, but float summation may differ across
// architectures (FMA contraction, libm variation); 1e-6 absorbs that
// while still flagging any genuine model drift.  Integers are always
// compared exactly.
const DefaultTol = 1e-6

// TraceSuffix and GoldenSuffix name the fixture file pair: a text-format
// trace and its committed expected output.
const (
	TraceSuffix  = ".trace.txt"
	GoldenSuffix = ".golden.json"
)

// goldenLoads are the load proportions each fixture is replayed at.
var goldenLoads = []float64{0.5, 1.0}

// goldenKinds are the arrays each fixture is replayed on.
var goldenKinds = []experiments.ArrayKind{experiments.HDDArray, experiments.SSDArray}

// TraceInfo pins the fixture's structural identity.
type TraceInfo struct {
	Device     string `json:"device"`
	Bunches    int    `json:"bunches"`
	IOs        int    `json:"ios"`
	TotalBytes int64  `json:"total_bytes"`
	DurationNs int64  `json:"duration_ns"`
}

// GoldenRun is one (array kind, load) replay outcome.
type GoldenRun struct {
	Kind string  `json:"kind"`
	Load float64 `json:"load"`

	Issued    int64 `json:"issued"`
	Completed int64 `json:"completed"`
	Bytes     int64 `json:"bytes"`

	IOPS           float64 `json:"iops"`
	MBPS           float64 `json:"mbps"`
	MeanResponseMs float64 `json:"mean_response_ms"`
	MaxResponseMs  float64 `json:"max_response_ms"`
	P50ResponseMs  float64 `json:"p50_response_ms"`
	P95ResponseMs  float64 `json:"p95_response_ms"`
	P99ResponseMs  float64 `json:"p99_response_ms"`

	MeanWatts   float64 `json:"mean_watts"`
	EnergyJ     float64 `json:"energy_j"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	MBPSPerKW   float64 `json:"mbps_per_kw"`

	DiskReads    int64 `json:"disk_reads"`
	DiskWrites   int64 `json:"disk_writes"`
	ParityReads  int64 `json:"parity_reads"`
	ParityWrites int64 `json:"parity_writes"`
}

// Golden is the committed expected output for one fixture trace.
type Golden struct {
	Name  string      `json:"name"`
	Trace TraceInfo   `json:"trace"`
	Runs  []GoldenRun `json:"runs"`
}

// BuildGolden replays the fixture trace at every golden (kind, load)
// cell on a fresh array with the invariant suite armed, and returns the
// document to commit.  Invariant violations fail the build: a golden
// that does not conform to the physics must never be committed.
func BuildGolden(name string, trace *blktrace.Trace) (*Golden, error) {
	return buildGolden(name, trace, func(cfg experiments.Config, kind experiments.ArrayKind, load float64) (*Result, *raid.Array, error) {
		engine, array, err := experiments.NewSystem(cfg, kind)
		if err != nil {
			return nil, nil, err
		}
		res, err := ReplayChecked(engine, array, trace, Options{Load: load})
		return res, array, err
	})
}

// goldenCell replays one golden (kind, load) cell with the invariant
// suite armed and returns the checked result plus the array whose
// counters the golden row reads.
type goldenCell func(cfg experiments.Config, kind experiments.ArrayKind, load float64) (*Result, *raid.Array, error)

// buildGolden runs every golden cell through cell and assembles the
// document; the serial, cached and sharded builds differ only in cell.
func buildGolden(name string, trace *blktrace.Trace, cell goldenCell) (*Golden, error) {
	g := &Golden{Name: name, Trace: traceInfo(trace)}
	cfg := experiments.DefaultConfig()
	for _, kind := range goldenKinds {
		for _, load := range goldenLoads {
			res, array, err := cell(cfg, kind, load)
			if err == nil {
				err = res.Report.Err()
			}
			if err != nil {
				return nil, fmt.Errorf("golden %s %s load %v: %w", name, kind, load, err)
			}
			st := array.Stats()
			r := res.Replay
			eff := metrics.NewEfficiency(r.IOPS, r.MBPS, res.MeanWatts, res.EnergyJ)
			g.Runs = append(g.Runs, GoldenRun{
				Kind: kind.String(), Load: load,
				Issued: r.Issued, Completed: r.Completed, Bytes: r.Bytes,
				IOPS: r.IOPS, MBPS: r.MBPS,
				MeanResponseMs: r.MeanResponse.Seconds() * 1000,
				MaxResponseMs:  r.MaxResponse.Seconds() * 1000,
				P50ResponseMs:  r.P50Response.Seconds() * 1000,
				P95ResponseMs:  r.P95Response.Seconds() * 1000,
				P99ResponseMs:  r.P99Response.Seconds() * 1000,
				MeanWatts:      res.MeanWatts, EnergyJ: res.EnergyJ,
				IOPSPerWatt: eff.IOPSPerWatt, MBPSPerKW: eff.MBPSPerKW,
				DiskReads: st.DiskReads, DiskWrites: st.DiskWrites,
				ParityReads: st.ParityReads, ParityWrites: st.ParityWrites,
			})
		}
	}
	return g, nil
}

// withinTol reports whether two floats agree within relative tolerance
// (absolute near zero), mirroring powersim.ApproxEqual.
func withinTol(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= tol*scale
}

// CompareGolden diffs got against want field by field: integers must
// match exactly, floats within tol.  It returns one human-readable line
// per mismatch; an empty slice means the documents agree.
func CompareGolden(want, got *Golden, tol float64) []string {
	d := &differ{tol: tol}
	d.trace(want.Trace, got.Trace)
	if len(want.Runs) != len(got.Runs) {
		d.addf("runs: want %d, got %d", len(want.Runs), len(got.Runs))
		return d.lines
	}
	for i := range want.Runs {
		w, g := &want.Runs[i], &got.Runs[i]
		pfx := fmt.Sprintf("runs[%d] (%s load %v)", i, w.Kind, w.Load)
		if w.Kind != g.Kind || w.Load != g.Load {
			d.addf("%s: cell identity changed to (%s, %v)", pfx, g.Kind, g.Load)
			continue
		}
		d.intf(pfx+".issued", w.Issued, g.Issued)
		d.intf(pfx+".completed", w.Completed, g.Completed)
		d.intf(pfx+".bytes", w.Bytes, g.Bytes)
		d.fltf(pfx+".iops", w.IOPS, g.IOPS)
		d.fltf(pfx+".mbps", w.MBPS, g.MBPS)
		d.fltf(pfx+".mean_response_ms", w.MeanResponseMs, g.MeanResponseMs)
		d.fltf(pfx+".max_response_ms", w.MaxResponseMs, g.MaxResponseMs)
		d.fltf(pfx+".p50_response_ms", w.P50ResponseMs, g.P50ResponseMs)
		d.fltf(pfx+".p95_response_ms", w.P95ResponseMs, g.P95ResponseMs)
		d.fltf(pfx+".p99_response_ms", w.P99ResponseMs, g.P99ResponseMs)
		d.fltf(pfx+".mean_watts", w.MeanWatts, g.MeanWatts)
		d.fltf(pfx+".energy_j", w.EnergyJ, g.EnergyJ)
		d.fltf(pfx+".iops_per_watt", w.IOPSPerWatt, g.IOPSPerWatt)
		d.fltf(pfx+".mbps_per_kw", w.MBPSPerKW, g.MBPSPerKW)
		d.intf(pfx+".disk_reads", w.DiskReads, g.DiskReads)
		d.intf(pfx+".disk_writes", w.DiskWrites, g.DiskWrites)
		d.intf(pfx+".parity_reads", w.ParityReads, g.ParityReads)
		d.intf(pfx+".parity_writes", w.ParityWrites, g.ParityWrites)
	}
	return d.lines
}

// LoadFixtureTrace reads one text-format fixture trace, wrapping decode
// failures with the file name so a truncated fixture surfaces as a
// labelled error, never a panic.
func LoadFixtureTrace(path string) (*blktrace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := blktrace.ReadText(f)
	if err != nil {
		return nil, fmt.Errorf("fixture %s: %w", path, err)
	}
	return tr, nil
}

// VerifyOptions configure a conformance-gate pass.
type VerifyOptions struct {
	// Update rewrites the committed goldens instead of diffing.
	Update bool
	// Tol is the relative float tolerance (0 = DefaultTol).
	Tol float64
	// TelemetryDir, when non-empty, receives the gate's diagnostics for
	// its first failure: the artifact CI uploads, so a conformance break
	// can be inspected without re-running anything locally.  The replay
	// corpus exports full telemetry (replay spans, time series, power
	// CSV) of the failing fixture re-run at the first golden cell.
	TelemetryDir string
}

// VerifyGolden re-runs every *.trace.txt fixture under dir and diffs
// the rebuilt output against the committed *.golden.json.  With
// opts.Update it rewrites the JSON instead of diffing.  Progress and
// diffs go to out (one PASS/FAIL/UPDATED line per fixture).  A fixture
// that fails to load, build or diff never aborts the pass: the
// remaining fixtures still run, and the returned error is a one-line
// summary counting the failures (wrapping the first underlying error,
// so callers can still errors.Is/As into it).
func VerifyGolden(dir string, opts VerifyOptions, out io.Writer) error {
	return fixtureGate[*Golden]{
		label:   "verify",
		suffix:  GoldenSuffix,
		build:   BuildGolden,
		compare: CompareGolden,
		summary: func(g *Golden) string { return fmt.Sprintf("%d runs", len(g.Runs)) },
		artifact: func(dir, name string, trace *blktrace.Trace, _ *Golden, out io.Writer) {
			writeFailureTelemetry(dir, name, trace, out)
		},
	}.verify(dir, opts, out)
}

// writeFailureTelemetry re-runs a failing fixture's first golden cell
// with full instrumentation and exports the artifact directory.  Export
// problems are reported on out but never mask the verification failure
// itself.
func writeFailureTelemetry(dir, name string, trace *blktrace.Trace, out io.Writer) {
	set := telemetry.New(telemetry.Options{})
	if _, err := experiments.MeasureAtLoad(experiments.DefaultConfig(), goldenKinds[0], trace, goldenLoads[0], set); err != nil {
		fmt.Fprintf(out, "  telemetry capture for %s failed: %v\n", name, err)
		return
	}
	if err := set.WriteDir(dir); err != nil {
		fmt.Fprintf(out, "  telemetry export for %s failed: %v\n", name, err)
		return
	}
	fmt.Fprintf(out, "  telemetry for %s (%s load %v) written to %s\n", name, goldenKinds[0], goldenLoads[0], dir)
}
