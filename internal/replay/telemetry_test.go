package replay

import (
	"testing"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// allocTestTrace builds a small fixed trace for allocation accounting.
func allocTestTrace() *blktrace.Trace {
	p := synth.DefaultWebServer()
	p.Duration = simtime.Second
	return synth.WebServerTrace(p)
}

// TestTelemetryProbeCountsReplay checks the enabled path records what
// the replay reports, in both open- and closed-loop modes.
func TestTelemetryProbeCountsReplay(t *testing.T) {
	tr := allocTestTrace()

	t.Run("open-loop", func(t *testing.T) {
		set := telemetry.New(telemetry.Options{})
		probe := telemetry.NewReplayProbe(set)
		e := simtime.NewEngine()
		arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayAtLoad(e, arr, tr, 0.5, Options{Telemetry: probe})
		if err != nil {
			t.Fatal(err)
		}
		reg := set.Registry()
		if got := reg.Counter("replay.issued").Value(); got != res.Issued {
			t.Fatalf("issued counter = %d, want %d", got, res.Issued)
		}
		if got := reg.Counter("replay.completed").Value(); got != res.Completed {
			t.Fatalf("completed counter = %d, want %d", got, res.Completed)
		}
		pass := reg.Counter("replay.filter_pass").Value()
		drop := reg.Counter("replay.filter_drop").Value()
		if pass+drop != int64(tr.NumIOs()) {
			t.Fatalf("filter pass %d + drop %d != %d IOs", pass, drop, tr.NumIOs())
		}
		if got := len(set.Tracer().Spans()); int64(got) != res.Completed {
			t.Fatalf("spans = %d, want one per completion %d", got, res.Completed)
		}
		if reg.Counter("replay.bytes").Value() != res.Bytes {
			t.Fatal("bytes counter diverges from result")
		}
	})

	t.Run("closed-loop", func(t *testing.T) {
		set := telemetry.New(telemetry.Options{})
		probe := telemetry.NewReplayProbe(set)
		e := simtime.NewEngine()
		arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		res, err := ReplayClosedLoop(e, arr, tr, 4, Options{Telemetry: probe})
		if err != nil {
			t.Fatal(err)
		}
		reg := set.Registry()
		if got := reg.Counter("replay.completed").Value(); got != res.Completed {
			t.Fatalf("completed counter = %d, want %d", got, res.Completed)
		}
		if got := reg.Watermark("replay.inflight_max").Value(); got < 1 || got > 4 {
			t.Fatalf("inflight max = %d, want within queue depth 4", got)
		}
		if got := reg.Gauge("replay.inflight").Value(); got != 0 {
			t.Fatalf("inflight gauge = %d after drain, want 0", got)
		}
	})
}

// TestReplayResultsUnchangedByTelemetry guards against instrumentation
// perturbing the simulation: identical results with and without a live
// probe.
func TestReplayResultsUnchangedByTelemetry(t *testing.T) {
	tr := allocTestTrace()
	runOnce := func(set *telemetry.Set, probe *telemetry.ReplayProbe) *Result {
		e := simtime.NewEngine()
		arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		arr.AttachTelemetry(set)
		res, err := Replay(e, arr, tr, Options{Telemetry: probe})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := runOnce(nil, nil)
	set := telemetry.New(telemetry.Options{})
	instr := runOnce(set, telemetry.NewReplayProbe(set))
	if plain.Completed != instr.Completed || plain.End != instr.End ||
		plain.MeanResponse != instr.MeanResponse || plain.P99Response != instr.P99Response {
		t.Fatalf("telemetry perturbed the run:\nplain %+v\ninstr %+v", plain, instr)
	}
}
