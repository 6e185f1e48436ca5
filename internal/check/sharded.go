// Sharded conformance: the same invariant suite and golden pipeline as
// the serial path, run through replay.ReplaySharded.  The sharded
// executor promises bit-identical results at any shard count; these
// gates hold it to that — the golden documents it produces must match
// the committed serial goldens byte for byte.
package check

import (
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
)

// ReplayShardedChecked mirrors ReplayChecked over the sharded executor:
// the observer asserts ordering and causality inline, and after every
// shard drains the array, the member models and the power accounting
// are cross-checked.  Load filtering materializes the filtered trace
// first, exactly as ReplayFiltered does.
func ReplayShardedChecked(engines []*simtime.Engine, array *raid.Array, trace *blktrace.Trace, opts Options) (*Result, error) {
	report := &Report{}
	obs := newObserver(report, opts.FIFOCompletions)

	src := replay.BunchSource(trace)
	filterName := ""
	if opts.Load > 0 && opts.Load < 1 {
		f := replay.UniformFilter{Proportion: opts.Load}
		src = f.Apply(trace)
		filterName = f.Name()
	}
	res, err := replay.ReplaySharded(engines, array, src, replay.ShardedOptions{
		SamplingCycle: opts.Replay.SamplingCycle,
		Observer:      obs,
		Telemetry:     opts.Replay.Telemetry,
	})
	if err != nil {
		return nil, err
	}
	res.Filter = filterName
	out := &Result{Replay: res, Report: report}

	var drain error
	for i, e := range engines {
		if n := e.Pending(); n != 0 && drain == nil {
			drain = fmt.Errorf("shard %d: %d events still pending after run", i, n)
		}
	}
	report.add("engine-drained", drain)
	obs.finish()
	checkDevice(engines[0], array, res, report, energyTol(opts), out)
	return out, nil
}

// BuildGoldenSharded is BuildGolden run through the sharded executor at
// the given shard count.  The document it returns must equal the serial
// document exactly — callers diff the two byte-for-byte.
func BuildGoldenSharded(name string, trace *blktrace.Trace, shards int) (*Golden, error) {
	return buildGolden(name, trace, func(cfg experiments.Config, kind experiments.ArrayKind, load float64) (*Result, *raid.Array, error) {
		engines, array, err := experiments.NewSystemSharded(cfg, kind, shards)
		if err != nil {
			return nil, nil, err
		}
		res, err := ReplayShardedChecked(engines, array, trace, Options{Load: load})
		if err == nil {
			err = res.Report.Err()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("%d shards: %w", shards, err)
		}
		return res, array, nil
	})
}
