//go:build !race

// Exact allocation counts hold only in a regular build: the race
// runtime allocates on its own, so these assertions are compiled out
// under -race.

package replay

import (
	"testing"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// replayAllocs measures allocations of one full end-to-end replay
// (engine + array construction excluded) with the given options and
// optional array-level telemetry attachment.
func replayAllocs(t *testing.T, tr *blktrace.Trace, set *telemetry.Set, opts Options) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		e := simtime.NewEngine()
		arr, err := raid.NewHDDArray(e, raid.DefaultParams(), 5, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		arr.AttachTelemetry(set)
		if _, err := Replay(e, arr, tr, opts); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDisabledTelemetryReplayAllocsMatchBaseline is the satellite
// regression guard: a replay with telemetry wired everywhere but
// disabled (nil set, nil probe) must allocate exactly as much as a
// replay that never heard of telemetry.  The disabled hot path is one
// pointer compare; any future allocation on it fails here.
func TestDisabledTelemetryReplayAllocsMatchBaseline(t *testing.T) {
	tr := allocTestTrace()
	// Warm up once so lazy one-time allocations (runtime internals,
	// package state) don't land inside either measurement.
	replayAllocs(t, tr, nil, Options{})
	base := replayAllocs(t, tr, nil, Options{})
	disabled := replayAllocs(t, tr, nil, Options{Telemetry: nil})
	if base != disabled {
		t.Fatalf("disabled-telemetry replay allocs %v != baseline %v", disabled, base)
	}
}
