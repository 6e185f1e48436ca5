package experiments

import (
	"fmt"

	"repro/internal/blktrace"
	"repro/internal/disksim"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// provision builds a pristine array of the given kind over engines,
// member disk i on engines[i%len(engines)].  member offsets every disk
// seed by member*FleetSeedStride, so member 0 is the standalone system
// and every other fleet member is the same hardware with an independent
// variate sequence.  This is the only place the HDD/SSD hardware of the
// paper's two arrays is chosen.
func provision(cfg Config, kind ArrayKind, engines []*simtime.Engine, member int) (*raid.Array, error) {
	params := raid.DefaultParams()
	offset := uint64(member) * FleetSeedStride
	if kind == SSDArray {
		params.Chassis = raid.SSDChassis()
		d := disksim.MemorightSLC32()
		d.Seed += offset
		return raid.NewSSDArrayEngines(engines, params, cfg.SSDs, d)
	}
	d := disksim.Seagate7200()
	d.Seed += offset
	return raid.NewHDDArrayEngines(engines, params, cfg.HDDs, d)
}

// NewSystem provisions a pristine simulated array of the given kind on
// a fresh engine; commands and examples share it with the experiment
// harnesses.
func NewSystem(cfg Config, kind ArrayKind) (*simtime.Engine, *raid.Array, error) {
	e := simtime.NewEngine()
	a, err := provision(cfg.normalize(), kind, []*simtime.Engine{e}, 0)
	return e, a, err
}

// NewSystemSharded provisions the same simulated array as NewSystem but
// over one engine per shard, for replay.ReplaySharded: member disk i
// lives on engines[i%shards].  With shards == 1 the system is identical
// to NewSystem's (same seeds, same names, one engine).
func NewSystemSharded(cfg Config, kind ArrayKind, shards int) ([]*simtime.Engine, *raid.Array, error) {
	engines := make([]*simtime.Engine, max(shards, 1))
	for i := range engines {
		engines[i] = simtime.NewEngine()
	}
	a, err := provision(cfg.normalize(), kind, engines, 0)
	return engines, a, err
}

// Measurement is one (load level, trace) replay measurement with power.
type Measurement struct {
	// Load is the configured load proportion.
	Load float64
	// Result is the replay's performance outcome.
	Result *replay.Result
	// Power is the metered mean wall power over the run.
	Power float64
	// Eff derives the paper's combined metrics.
	Eff metrics.Efficiency
}

// wallMeter is the paper's wall meter on src, seeded from the config so
// every cell of an experiment draws the same measurement noise.
func wallMeter(cfg Config, src powersim.Source) *powersim.Meter {
	m := powersim.DefaultMeter(src)
	m.Seed = cfg.Seed
	return m
}

// meterRun meters wall power over the run's [Start, End) and derives
// the paper's efficiency metrics.  The meter re-seeds per Measure call,
// so the read is independent of any online channel on the same source.
func meterRun(cfg Config, load float64, src powersim.Source, res *replay.Result) *Measurement {
	samples := wallMeter(cfg, src).Measure(res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	return &Measurement{
		Load:   load,
		Result: res,
		Power:  watts,
		Eff:    metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
	}
}

// filterStep is the load-control step both executors share: it applies
// f to src and records the pass/drop split on probe.  A uniform filter
// at 100% or more keeps every bunch, so src passes through untouched —
// a mapped trace stays zero-copy — and only the accounting is recorded.
// Any other filter rewrites the bunch list and so materializes a mapped
// trace first.
func filterStep(src replay.BunchSource, f replay.Filter, probe *telemetry.ReplayProbe) (replay.BunchSource, error) {
	if uf, ok := f.(replay.UniformFilter); ok && uf.Proportion >= 1 {
		probe.OnFilter(src.NumIOs(), 0)
		return src, nil
	}
	var tr *blktrace.Trace
	switch s := src.(type) {
	case *blktrace.Trace:
		tr = s
	case *blktrace.MappedTrace:
		var err error
		if tr, err = s.Materialize(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("experiments: load filtering needs a materialized trace (got %T)", src)
	}
	filtered := f.Apply(tr)
	probe.OnFilter(filtered.NumIOs(), tr.NumIOs()-filtered.NumIOs())
	return filtered, nil
}

// loadOf reports the configured load proportion a filter stands for:
// the uniform filter's proportion, 0 for any other reshaping.
func loadOf(f replay.Filter) float64 {
	if uf, ok := f.(replay.UniformFilter); ok {
		return uf.Proportion
	}
	return 0
}

// rig is one provisioned system under test on a fresh engine: the
// device a replay submits to, its wall-power source, and the layers an
// instrumented run wires into its telemetry set.
type rig struct {
	engine *simtime.Engine
	dev    storage.Device
	wall   powersim.Source
	// tier is a cache tier's own power rail, sampled online as the
	// "cache" channel; nil without a real tier.
	tier   powersim.Source
	layers []instrumented
}

// instrumented is a layer that records into a telemetry set once
// attached; raid.Array and cache.Cache are the two the cell wires.
type instrumented interface{ AttachTelemetry(*telemetry.Set) }

// arrayRig is the rig of a bare array.
func arrayRig(e *simtime.Engine, a *raid.Array) rig {
	return rig{engine: e, dev: a, wall: a.PowerSource(), layers: []instrumented{a}}
}

// measure is the serial measurement cell: filter trace through f,
// instrument the run when set is non-nil, replay open-loop and meter
// wall power over the run.  A nil set is the uninstrumented path and
// schedules nothing beyond the replay itself.
//
// An instrumented run wires the engine and every layer into set,
// attaches online power channels and samples the registry on the
// set's cadence up to the filtered trace duration plus two cadence
// windows of settle time; completions beyond that horizon still run,
// they just fall outside the sampled series.  The Measurement is the
// same either way.
func (r rig) measure(cfg Config, trace *blktrace.Trace, f replay.Filter, set *telemetry.Set) (*Measurement, error) {
	var probe *telemetry.ReplayProbe
	if set != nil {
		telemetry.WireEngine(set, r.engine)
		for _, l := range r.layers {
			l.AttachTelemetry(set)
		}
		probe = telemetry.NewReplayProbe(set)
	}
	src, err := filterStep(trace, f, probe)
	if err != nil {
		return nil, err
	}
	filtered := src.(*blktrace.Trace)
	if set != nil {
		horizon := r.engine.Now().Add(filtered.Duration() + 2*set.Cadence())
		set.AddPowerChannel(r.engine, "wall", wallMeter(cfg, r.wall), horizon)
		if r.tier != nil {
			set.AddPowerChannel(r.engine, "cache", powersim.DefaultMeter(r.tier), horizon)
		}
		set.StartSampling(r.engine, horizon)
	}
	res, err := replay.Replay(r.engine, r.dev, filtered, replay.Options{Telemetry: probe})
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	// Close any partial sampling window so a run that drained before the
	// horizon still exports its tail.
	set.Flush(r.engine.Now())
	return meterRun(cfg, loadOf(f), r.wall, res), nil
}

// measureFiltered provisions a fresh array of the given kind and runs
// the measurement cell on it.
func measureFiltered(cfg Config, kind ArrayKind, trace *blktrace.Trace, f replay.Filter, set *telemetry.Set) (*Measurement, error) {
	e, a, err := NewSystem(cfg, kind)
	if err != nil {
		return nil, err
	}
	return arrayRig(e, a).measure(cfg, trace, f, set)
}

// MeasureAtLoad replays trace on a fresh array at the given load
// proportion and meters wall power — the per-cell measurement sweep
// tools fan out with CollectModeTrace.  A non-nil set instruments the
// run: engine, array and member disks record into it, and an online
// "wall" power channel samples it.  The Measurement is the same with or
// without a set.
func MeasureAtLoad(cfg Config, kind ArrayKind, trace *blktrace.Trace, load float64, set *telemetry.Set) (*Measurement, error) {
	return measureFiltered(cfg.normalize(), kind, trace, replay.UniformFilter{Proportion: load}, set)
}

// MeasureAtLoadSharded is MeasureAtLoad on the sharded executor: the
// array is provisioned over one engine per shard and the replay runs
// through replay.ReplaySharded, bit-identical to the serial run at any
// shard count.  It shares the provisioner, the filter step and the
// metering with the serial cell but keeps its own entry point, because
// the executors differ in what instrumentation they can carry.
//
// src may be a materialized *blktrace.Trace or a zero-copy
// *blktrace.MappedTrace; a load below 100% materializes it.  With a
// non-nil set, controller-level probes record into set and each member
// disk's probe into a private per-shard Set, folded into set in shard
// order after the run, so shard goroutines never share telemetry state.
// Engine gauges and online power/registry sampling are deliberately
// absent: they would schedule sampling callbacks onto one shard's event
// loop while other shards run.  Power is still metered post-hoc over
// the full run, exactly as the serial cell does.
func MeasureAtLoadSharded(cfg Config, kind ArrayKind, src replay.BunchSource, load float64, set *telemetry.Set, shards int) (*Measurement, error) {
	cfg = cfg.normalize()
	engines, a, err := NewSystemSharded(cfg, kind, shards)
	if err != nil {
		return nil, err
	}
	var shardSets []*telemetry.Set
	if set != nil {
		shardSets = make([]*telemetry.Set, len(engines))
		for i := range shardSets {
			shardSets[i] = telemetry.New(telemetry.Options{Cadence: set.Cadence()})
		}
		a.AttachTelemetryShards(set, shardSets)
	}
	probe := telemetry.NewReplayProbe(set)
	f := replay.UniformFilter{Proportion: load}
	if src, err = filterStep(src, f, probe); err != nil {
		return nil, err
	}
	res, err := replay.ReplaySharded(engines, a, src, replay.ShardedOptions{Telemetry: probe})
	if err != nil {
		return nil, err
	}
	res.Filter = f.Name()
	for _, ss := range shardSets {
		set.Registry().Merge(ss.Registry())
	}
	set.Flush(engines[0].Now())
	return meterRun(cfg, load, a.PowerSource(), res), nil
}
