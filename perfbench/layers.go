package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/disksim"
	"repro/internal/fleet"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// perLayer lists the traced run's metrics in BENCHMARK.json order with
// their units.  A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"powersim.measure_s", "s"},
	{"powersim.steps", "count"},
	{"powersim.cycles", "count"},
	{"powersim.measure_ns_per_step", "ns"},
	{"raid.plan_ns", "ns"},
	{"raid.plan_allocs", "count"},
	{"raid.plan_bytes", "B"},
	{"raid.disk_ops_per_io", "ratio"},
	{"raid.rmw_stripes", "count"},
	{"raid.submit_s", "s"},
	{"raid.fanin_s", "s"},
	{"disksim.submit_calls", "count"},
	{"disksim.submit_s", "s"},
	{"disksim.busy_frac", "ratio"},
	{"cache.submit_s", "s"},
	{"cache.hit_rate", "ratio"},
	{"cache.writebacks", "count"},
	{"cache.evictions", "count"},
	{"cache.backing_ops", "count"},
	{"replay.filter_s", "s"},
	{"replay.run_s", "s"},
	{"replay.complete_s", "s"},
	{"simtime.events", "count"},
	{"simtime.events_per_io", "ratio"},
	{"simtime.max_heap", "count"},
	{"simtime.residual_s", "s"},
	{"fleet.setup_s", "s"},
	{"fleet.window_s", "s"},
	{"fleet.windows", "count"},
	{"fleet.finish_s", "s"},
	{"slo.alerts", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.max_rss_mb", "MB"},
	{"trace.overhead_ios_per_s", "1/s"},
}

// allocDelta is the Go runtime's allocation and GC activity over one
// measured phase.
type allocDelta struct {
	objects, bytes, gcCycles uint64
	gcPause                  time.Duration
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
}

type rtSnap struct {
	vals  [4]uint64
	pause uint64
}

func readRuntime() rtSnap {
	samples := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var s rtSnap
	for i := range samples {
		s.vals[i] = samples[i].Value.Uint64()
	}
	// runtime/metrics only exposes GC pauses as a histogram; MemStats
	// keeps their exact total.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.pause = ms.PauseTotalNs
	return s
}

// phase times one measured phase and takes the runtime's counters on
// both sides, outside the timed interval.
type phase struct {
	snap  rtSnap
	start time.Time
}

func beginPhase() *phase {
	p := &phase{snap: readRuntime()}
	p.start = time.Now()
	return p
}

func (p *phase) end(out *repOut) {
	out.phase = time.Since(p.start)
	s := readRuntime()
	out.allocs = allocDelta{
		objects:  s.vals[0] - p.snap.vals[0] + s.vals[1] - p.snap.vals[1],
		bytes:    s.vals[2] - p.snap.vals[2],
		gcCycles: s.vals[3] - p.snap.vals[3],
		gcPause:  time.Duration(s.pause - p.snap.pause),
	}
}

// replayLayers gathers a traced replay rep's per-layer metrics from
// its spans and from the layers' own counters.
func replayLayers(tr *tracer, systems []*replaySystem, uses []*powerUse, out *repOut) map[string]float64 {
	m := map[string]float64{}
	self := func(name string) float64 { _, s := tr.seconds(name); return s }
	total := func(name string) float64 { t, _ := tr.seconds(name); return t }

	m["powersim.measure_s"] = total(spanPowerMeasure)
	for _, u := range uses {
		m["powersim.steps"] += float64(u.steps)
		m["powersim.cycles"] += float64(u.cycles)
	}
	m["raid.submit_s"] = self(spanRAIDSubmit)
	m["raid.fanin_s"] = self(spanRAIDFanin)
	m["disksim.submit_calls"] = float64(tr.count(spanDiskSubmit))
	m["disksim.submit_s"] = self(spanDiskSubmit)
	m["cache.submit_s"] = self(spanCacheSubmit)
	m["replay.filter_s"] = total(spanReplayFilter)
	m["replay.run_s"] = total(spanReplayRun)
	m["replay.complete_s"] = self(spanReplayComplete)
	m["simtime.residual_s"] = self(spanReplayRun)

	var arrays []*raid.Array
	var busy, span simtime.Duration
	var events uint64
	for _, s := range systems {
		arrays = append(arrays, s.array)
		events += s.engine.Fired() - s.probe.fired
		if h := float64(s.engine.MaxHeapDepth()); h > m["simtime.max_heap"] {
			m["simtime.max_heap"] = h
		}
		b, n := diskBusy(s.disks)
		busy += b
		span += simtime.Duration(n) * s.engine.Now().Sub(0)
		if s.cache != nil {
			st := s.cache.Stats()
			m["cache.hit_rate"] = st.HitRate()
			m["cache.writebacks"] += float64(st.Writebacks)
			m["cache.evictions"] += float64(st.Evictions)
			m["cache.backing_ops"] += float64(st.BackingReads + st.BackingWrites)
		}
	}
	m["simtime.events"] = float64(events)
	m["simtime.events_per_io"] = float64(events) / float64(out.completed())
	if span > 0 {
		m["disksim.busy_frac"] = float64(busy) / float64(span)
	}
	raidStats(m, arrays)
	powerPerStep(m)
	return m
}

// fleetLayers gathers a traced fleet rep's per-layer metrics.  The
// fleet provisions its members itself, so their disks and arrays are
// not wrapped: RAID and disk work come from the layers' counters, and
// metering is timed by re-metering every member after the run.
func fleetLayers(tr *tracer, f *fleet.Fleet, res *fleet.Result, alerts int, seed uint64) map[string]float64 {
	m := map[string]float64{"slo.alerts": float64(alerts)}
	setup, _ := tr.seconds(spanFleetSetup)
	win, _ := tr.seconds(spanFleetWindow)
	fin, _ := tr.seconds(spanFleetFinish)
	m["fleet.setup_s"] = setup
	m["fleet.window_s"] = win
	m["fleet.windows"] = float64(res.Windows)
	m["fleet.finish_s"] = fin

	var events uint64
	for _, e := range f.Engines() {
		events += e.Fired()
		if h := float64(e.MaxHeapDepth()); h > m["simtime.max_heap"] {
			m["simtime.max_heap"] = h
		}
	}
	m["simtime.events"] = float64(events)
	m["simtime.events_per_io"] = float64(events) / float64(res.Completed)

	var busy simtime.Duration
	var disks int
	for i, a := range f.Arrays() {
		b, n := diskBusy(a.Disks())
		busy += b
		disks += n
		src := a.PowerSource()
		samples := measurePower(tr, src, seed+uint64(i), res.Start, res.End)
		m["powersim.steps"] += float64(timelineSteps(src))
		m["powersim.cycles"] += float64(len(samples))
	}
	if d := res.End.Sub(res.Start); d > 0 {
		m["disksim.busy_frac"] = float64(busy) / float64(simtime.Duration(disks)*d)
	}
	st := raidStats(m, f.Arrays())
	m["disksim.submit_calls"] = float64(st.DiskReads + st.DiskWrites)
	m["powersim.measure_s"], _ = tr.seconds(spanPowerMeasure)
	powerPerStep(m)
	return m
}

func powerPerStep(m map[string]float64) {
	if steps := m["powersim.steps"]; steps > 0 {
		m["powersim.measure_ns_per_step"] = m["powersim.measure_s"] * 1e9 / steps
	}
}

// diskBusy sums the members' sim busy time.
func diskBusy(disks []raid.Disk) (busy simtime.Duration, n int) {
	for _, d := range disks {
		switch d := d.(type) {
		case *disksim.HDD:
			busy += d.Stats().BusyTime
		case *disksim.SSD:
			busy += d.Stats().BusyTime
		}
		n++
	}
	return busy, n
}

// raidStats records the arrays' member-op fan-out and RMW stripes and
// returns the summed counters.
func raidStats(m map[string]float64, arrays []*raid.Array) raid.Stats {
	var sum raid.Stats
	for _, a := range arrays {
		st := a.Stats()
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.DiskReads += st.DiskReads
		sum.DiskWrites += st.DiskWrites
		sum.RMWStripes += st.RMWStripes
	}
	if front := sum.Reads + sum.Writes; front > 0 {
		m["raid.disk_ops_per_io"] = float64(sum.DiskReads+sum.DiskWrites) / float64(front)
	}
	m["raid.rmw_stripes"] = float64(sum.RMWStripes)
	return sum
}

// planLadder calls PlanRequest on a spare array for every request of
// the workload's own stream, inside one raid.plan span, and reports
// the cost per request.
func planLadder(tr *tracer, reqs []storage.Request, a *raid.Array, m map[string]float64) {
	before := readRuntime()
	tr.begin(spanRAIDPlan)
	start := time.Now()
	for _, r := range reqs {
		a.PlanRequest(r)
	}
	d := time.Since(start)
	tr.end()
	after := readRuntime()
	n := float64(len(reqs))
	m["raid.plan_ns"] = float64(d.Nanoseconds()) / n
	m["raid.plan_allocs"] = float64(after.vals[0]-before.vals[0]+after.vals[1]-before.vals[1]) / n
	m["raid.plan_bytes"] = float64(after.vals[2]-before.vals[2]) / n
}
