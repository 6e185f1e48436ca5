package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/blktrace"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

func telemetryTestTrace() *blktrace.Trace {
	p := synth.DefaultWebServer()
	p.Duration = 2 * simtime.Second
	return synth.WebServerTrace(p)
}

// TestMeasurementPathsAgree is the measurement cell's contract: every
// entry point that replays a trace at a load and meters it — serial
// with and without instrumentation, behind a disabled cache with and
// without instrumentation, and on the sharded executor — returns the
// same Measurement, field for field.  No field is exempt.
func TestMeasurementPathsAgree(t *testing.T) {
	tr := telemetryTestTrace()
	cfg := DefaultConfig()
	set := func() *telemetry.Set { return telemetry.New(telemetry.Options{}) }
	cached := func(s *telemetry.Set) func(float64) (*Measurement, error) {
		return func(load float64) (*Measurement, error) {
			m, err := MeasureCachedAtLoad(cfg, HDDArray, CacheSpec{}, tr, load, s)
			if err != nil {
				return nil, err
			}
			return &m.Measurement, nil
		}
	}
	sharded := func(shards int, s *telemetry.Set) func(float64) (*Measurement, error) {
		return func(load float64) (*Measurement, error) {
			return MeasureAtLoadSharded(cfg, HDDArray, tr, load, s, shards)
		}
	}
	for _, load := range []float64{0.5, 1.0} {
		want, err := MeasureAtLoad(cfg, HDDArray, tr, load, nil)
		if err != nil {
			t.Fatal(err)
		}
		paths := []struct {
			name string
			run  func(float64) (*Measurement, error)
		}{
			{"serial+set", func(load float64) (*Measurement, error) { return MeasureAtLoad(cfg, HDDArray, tr, load, set()) }},
			{"cached-disabled", cached(nil)},
			{"cached-disabled+set", cached(set())},
			{"sharded-1+set", sharded(1, set())},
			{"sharded-2+set", sharded(2, set())},
			{"sharded-2", sharded(2, nil)},
		}
		for _, p := range paths {
			got, err := p.run(load)
			if err != nil {
				t.Fatalf("%s at load %v: %v", p.name, load, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at load %v diverges from MeasureAtLoad:\n got %+v %+v\nwant %+v %+v",
					p.name, load, got, got.Result, want, want.Result)
			}
		}
	}
}

// TestInstrumentedRunCounters: the registry an instrumented run fills
// agrees with its replay result.
func TestInstrumentedRunCounters(t *testing.T) {
	tr := telemetryTestTrace()
	set := telemetry.New(telemetry.Options{})
	m, err := MeasureAtLoad(DefaultConfig(), HDDArray, tr, 0.5, set)
	if err != nil {
		t.Fatal(err)
	}
	reg := set.Registry()
	if got := reg.Counter("replay.issued").Value(); got != m.Result.Issued {
		t.Fatalf("replay.issued = %d, want %d", got, m.Result.Issued)
	}
	if got := reg.Counter("replay.completed").Value(); got != m.Result.Completed {
		t.Fatalf("replay.completed = %d, want %d", got, m.Result.Completed)
	}
	pass := reg.Counter("replay.filter_pass").Value()
	drop := reg.Counter("replay.filter_drop").Value()
	if pass != m.Result.Issued || pass+drop != int64(tr.NumIOs()) {
		t.Fatalf("filter pass/drop = %d/%d over %d IOs (issued %d)",
			pass, drop, tr.NumIOs(), m.Result.Issued)
	}
	if len(set.Windows()) == 0 {
		t.Fatal("no sampled windows")
	}
	if len(set.Tracer().Spans()) == 0 {
		t.Fatal("no spans recorded")
	}
}

// TestFullLoadFilterAccounting: at 100% load every executor and input
// form records the filter step — filter_pass equals the IOs issued and
// the Result names the uniform filter — exactly as the serial run does.
// A mapped trace still replays zero-copy.
func TestFullLoadFilterAccounting(t *testing.T) {
	tr := telemetryTestTrace()
	path := filepath.Join(t.TempDir(), "t.rmap")
	if err := blktrace.WriteMappedFile(path, tr); err != nil {
		t.Fatal(err)
	}
	mt, err := blktrace.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mt.Close()
	runs := []struct {
		name string
		run  func(*telemetry.Set) (*Measurement, error)
	}{
		{"serial", func(s *telemetry.Set) (*Measurement, error) {
			return MeasureAtLoad(DefaultConfig(), HDDArray, tr, 1.0, s)
		}},
		{"sharded-2", func(s *telemetry.Set) (*Measurement, error) {
			return MeasureAtLoadSharded(DefaultConfig(), HDDArray, tr, 1.0, s, 2)
		}},
		{"mapped-1", func(s *telemetry.Set) (*Measurement, error) {
			return MeasureAtLoadSharded(DefaultConfig(), HDDArray, mt, 1.0, s, 1)
		}},
	}
	for _, r := range runs {
		set := telemetry.New(telemetry.Options{})
		m, err := r.run(set)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		reg := set.Registry()
		pass := reg.Counter("replay.filter_pass").Value()
		drop := reg.Counter("replay.filter_drop").Value()
		if pass != m.Result.Issued || pass != int64(tr.NumIOs()) || drop != 0 {
			t.Errorf("%s: filter pass/drop = %d/%d, want %d/0 (issued %d)",
				r.name, pass, drop, tr.NumIOs(), m.Result.Issued)
		}
		if m.Result.Filter != "uniform-100%" {
			t.Errorf("%s: Result.Filter = %q, want %q", r.name, m.Result.Filter, "uniform-100%")
		}
	}
}

// TestTelemetryPowerAgreesWithMeasure is the acceptance criterion: the
// online-sampled power channel, and the CSV it exports, integrate to
// the same energy as a post-hoc powersim.Measure within 1e-6 relative.
func TestTelemetryPowerAgreesWithMeasure(t *testing.T) {
	tr := telemetryTestTrace()
	set := telemetry.New(telemetry.Options{})
	if _, err := MeasureAtLoad(DefaultConfig(), HDDArray, tr, 1.0, set); err != nil {
		t.Fatal(err)
	}
	ch := set.PowerChannels()[0]
	if ch.Name != "wall" {
		t.Fatalf("first power channel is %q, want wall", ch.Name)
	}
	want := ch.Meter.Measure(ch.Span())
	got := ch.Samples()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("online channel is not bit-identical to Measure: %d vs %d samples", len(got), len(want))
	}

	dir := t.TempDir()
	if err := set.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, telemetry.PowerFile("wall")))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := csv.NewReader(f)
	if _, err := r.Read(); err != nil { // header
		t.Fatal(err)
	}
	var csvEnergy float64
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		start, _ := strconv.ParseFloat(rec[0], 64)
		end, _ := strconv.ParseFloat(rec[1], 64)
		watts, _ := strconv.ParseFloat(rec[2], 64)
		csvEnergy += watts * (end - start)
	}
	wantEnergy := powersim.EnergyJ(want)
	if wantEnergy <= 0 {
		t.Fatalf("degenerate energy %v", wantEnergy)
	}
	if rel := math.Abs(csvEnergy-wantEnergy) / wantEnergy; rel > 1e-6 {
		t.Fatalf("CSV integrated energy %.9f J vs Measure %.9f J: relative error %g > 1e-6",
			csvEnergy, wantEnergy, rel)
	}
}

// TestTelemetryDirArtifacts drives the full export path on a real run:
// parseable Chrome trace, well-formed events.jsonl, and a rendering
// report.
func TestTelemetryDirArtifacts(t *testing.T) {
	tr := telemetryTestTrace()
	set := telemetry.New(telemetry.Options{})
	m, err := MeasureAtLoad(DefaultConfig(), SSDArray, tr, 0.5, set)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := set.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, telemetry.ChromeFile))
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace.json not parseable: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("no chrome trace events")
	}
	cats := map[string]bool{}
	for _, ev := range chrome.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		cats[ev.Cat] = true
	}
	for _, want := range []string{"replay", "raid", "disk"} {
		if !cats[want] {
			t.Fatalf("chrome trace missing %q spans (got %v)", want, cats)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.RenderReport(&buf, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"replay.issued", "replay.response_ns", "wall", "POWER"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
	if m.Result.Completed == 0 {
		t.Fatal("run completed no IOs")
	}
}
