// The conformance-gate harness every gate shares: the worker widths the
// determinism gates cross-check, the failure tally, the golden JSON
// codec and field differ, and the fixture loop (glob the corpus, build
// each fixture, diff against or rewrite its committed golden, export
// artifacts for the first failure).
package check

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/blktrace"
)

// gateWorkerCounts are the fan-out widths every determinism gate
// cross-checks: each pair must produce byte-identical output.
var gateWorkerCounts = []int{1, 2, 8}

// tally counts a gate's checks and failures.  Each failure prints one
// FAIL line; the first is kept so the summary error can wrap it.
type tally struct {
	out    io.Writer
	total  int
	failed int
	first  error
}

func (t *tally) fail(name string, err error) {
	t.failed++
	if t.first == nil {
		t.first = err
	}
	fmt.Fprintf(t.out, "FAIL %s: %v\n", name, err)
}

// err is nil when nothing failed, else a one-line summary counting the
// failures and wrapping the first, so callers can errors.Is/As into it.
func (t *tally) err(label, noun string) error {
	if t.failed == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d %s failed: %w", label, t.failed, t.total, noun, t.first)
}

// traceInfo pins a fixture's structural identity.
func traceInfo(trace *blktrace.Trace) TraceInfo {
	st := blktrace.ComputeStats(trace)
	return TraceInfo{
		Device:     trace.Device,
		Bunches:    st.Bunches,
		IOs:        st.IOs,
		TotalBytes: st.TotalBytes,
		DurationNs: int64(st.Duration),
	}
}

// differ collects one human-readable line per golden mismatch:
// integers and strings compare exactly, floats within tol.
type differ struct {
	tol   float64
	lines []string
}

func (d *differ) addf(format string, args ...any) {
	d.lines = append(d.lines, fmt.Sprintf(format, args...))
}

func (d *differ) intf(field string, want, got int64) {
	if want != got {
		d.addf("%s: want %d, got %d", field, want, got)
	}
}

func (d *differ) fltf(field string, want, got float64) {
	if !withinTol(want, got, d.tol) {
		d.addf("%s: want %.9g, got %.9g (tol %g)", field, want, got, d.tol)
	}
}

func (d *differ) strf(field, want, got string) {
	if want != got {
		d.addf("%s: want %q, got %q", field, want, got)
	}
}

// trace diffs the fixture identity every golden pins.
func (d *differ) trace(want, got TraceInfo) {
	d.strf("trace.device", want.Device, got.Device)
	d.intf("trace.bunches", int64(want.Bunches), int64(got.Bunches))
	d.intf("trace.ios", int64(want.IOs), int64(got.IOs))
	d.intf("trace.total_bytes", want.TotalBytes, got.TotalBytes)
	d.intf("trace.duration_ns", want.DurationNs, got.DurationNs)
}

// marshalGolden is the committed encoding of every JSON golden.
func marshalGolden(doc any) ([]byte, error) {
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// readGolden loads a committed JSON golden document.
func readGolden[G any](path string) (G, error) {
	var g G
	blob, err := os.ReadFile(path)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(blob, &g); err != nil {
		return g, fmt.Errorf("golden %s: %w", path, err)
	}
	return g, nil
}

// writeGolden commits a JSON golden document.
func writeGolden(path string, doc any) error {
	blob, err := marshalGolden(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// writeFixtureTrace commits a synthesised fixture trace in text form.
func writeFixtureTrace(path string, trace *blktrace.Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := blktrace.WriteText(f, trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fixtureGate is one gate over a corpus of *.trace.txt fixtures, each
// paired with a committed JSON golden of type G.
type fixtureGate[G any] struct {
	// label prefixes the gate's errors.
	label string
	// suffix names each fixture's golden; empty for a gate that judges
	// the fresh build alone and has no goldens to diff or rewrite.
	suffix string
	// bootstrap, when non-nil, synthesises the canonical fixture that
	// -update writes into an empty corpus.
	bootstrap func() *blktrace.Trace
	// build runs the gate on one fixture; an error fails the fixture.
	build func(name string, trace *blktrace.Trace) (G, error)
	// compare diffs the fresh build against the committed golden, one
	// line per mismatch.
	compare func(want, got G, tol float64) []string
	// summary is the detail on the fixture's PASS/UPDATED line.
	summary func(got G) string
	// artifact, when non-nil, exports diagnostics for the first fixture
	// whose golden diff fails into dir.
	artifact func(dir, name string, trace *blktrace.Trace, got G, out io.Writer)
}

// verify runs the gate over every fixture under dir and returns the
// tally's summary error.
func (g fixtureGate[G]) verify(dir string, opts VerifyOptions, out io.Writer) error {
	t := &tally{out: out}
	if err := g.run(dir, opts, t); err != nil {
		return err
	}
	return t.err(g.label, "fixtures")
}

// run is the fixture loop.  A fixture that fails to load, build or diff
// never aborts the pass: it is tallied and the next fixture runs.  The
// returned error covers only a corpus that cannot be read at all.
func (g fixtureGate[G]) run(dir string, opts VerifyOptions, t *tally) error {
	tol := opts.Tol
	if tol <= 0 {
		tol = DefaultTol
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*"+TraceSuffix))
	if err != nil {
		return err
	}
	if len(paths) == 0 && opts.Update && g.bootstrap != nil {
		path := filepath.Join(dir, "idle-web"+TraceSuffix)
		if err := writeFixtureTrace(path, g.bootstrap()); err != nil {
			return err
		}
		fmt.Fprintf(t.out, "CREATED %s\n", path)
		paths = []string{path}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		hint := ""
		if g.bootstrap != nil {
			hint = " (run with -update to bootstrap)"
		}
		return fmt.Errorf("%s: no %s fixtures under %s%s", g.label, TraceSuffix, dir, hint)
	}
	artifactDone := false
	for _, tracePath := range paths {
		t.total++
		name := strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
		trace, err := LoadFixtureTrace(tracePath)
		if err != nil {
			t.fail(name, err)
			continue
		}
		got, err := g.build(name, trace)
		if err != nil {
			t.fail(name, err)
			continue
		}
		if g.suffix == "" {
			fmt.Fprintf(t.out, "PASS %s (%s)\n", name, g.summary(got))
			continue
		}
		goldenPath := strings.TrimSuffix(tracePath, TraceSuffix) + g.suffix
		if opts.Update {
			if err := writeGolden(goldenPath, got); err != nil {
				t.fail(name, err)
				continue
			}
			fmt.Fprintf(t.out, "UPDATED %s (%s)\n", name, g.summary(got))
			continue
		}
		want, err := readGolden[G](goldenPath)
		if err != nil {
			t.fail(name, fmt.Errorf("%w (run with -update to create)", err))
			continue
		}
		diffs := g.compare(want, got, tol)
		if len(diffs) == 0 {
			fmt.Fprintf(t.out, "PASS %s (%s)\n", name, g.summary(got))
			continue
		}
		t.fail(name, fmt.Errorf("%d mismatch(es)", len(diffs)))
		for _, d := range diffs {
			fmt.Fprintf(t.out, "  %s\n", d)
		}
		if opts.TelemetryDir != "" && g.artifact != nil && !artifactDone {
			artifactDone = true
			g.artifact(opts.TelemetryDir, name, trace, got, t.out)
		}
	}
	return nil
}
