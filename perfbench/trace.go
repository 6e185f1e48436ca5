package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// Span names recorded by the traced run.  Each marks a call from this
// benchmark into one layer's public functions.
const (
	spanReplayFilter   = "replay.filter"
	spanReplayRun      = "replay.run"
	spanReplayComplete = "replay.complete"
	spanRAIDSubmit     = "raid.submit"
	spanRAIDFanin      = "raid.fanin"
	spanRAIDPlan       = "raid.plan"
	spanCacheSubmit    = "cache.submit"
	spanDiskSubmit     = "disksim.submit"
	spanPowerMeasure   = "powersim.measure"
	spanFleetSetup     = "fleet.setup"
	spanFleetRun       = "fleet.run"
	spanFleetWindow    = "fleet.window"
	spanFleetFinish    = "fleet.finish"
)

// maxKeptSpans bounds the span records kept for the drill-down file.
// A traced web-hdd rep opens several million spans; every span feeds
// the per-name totals, but only the first maxKeptSpans are written out.
const maxKeptSpans = 1 << 15

// spanRec is one finished span as written to the span file.  Times
// are host nanoseconds since the tracer started.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanTotal accumulates every span of one name.
type spanTotal struct {
	Count int64
	Total time.Duration
	Self  time.Duration
}

// frame is an open span on the tracer's stack.
type frame struct {
	id       int64
	parent   int64
	name     string
	start    time.Duration
	children time.Duration
}

// tracer records spans from one goroutine.  Spans nest strictly (a
// child ends before its parent), so a stack gives each span its parent
// and its self time: the span's duration minus its direct children's.
type tracer struct {
	t0     time.Time
	nextID int64
	stack  []frame
	totals map[string]*spanTotal
	kept   []spanRec
	total  int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), totals: make(map[string]*spanTotal)}
}

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span; every begin is matched by one end.
func (t *tracer) begin(name string) {
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.stack = append(t.stack, frame{id: t.nextID, parent: parent, name: name, start: t.now()})
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	t.record(f.id, f.parent, f.name, f.start, t.now(), f.children)
}

// add records a span whose bounds were measured elsewhere (fleet
// windows are timed from the barrier hook) under the innermost open
// span, or at top level when none is open.
func (t *tracer) add(name string, start, end time.Duration) {
	t.nextID++
	var parent int64
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].id
	}
	t.record(t.nextID, parent, name, start, end, 0)
}

func (t *tracer) record(id, parent int64, name string, start, end, children time.Duration) {
	d := end - start
	if n := len(t.stack); n > 0 {
		t.stack[n-1].children += d
	}
	tot := t.totals[name]
	if tot == nil {
		tot = &spanTotal{}
		t.totals[name] = tot
	}
	tot.Count++
	tot.Total += d
	tot.Self += d - children
	t.total++
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRec{ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	}
}

// reset clears the per-name totals between reps; kept records stay.
func (t *tracer) reset() { t.totals = make(map[string]*spanTotal) }

// seconds reports a span name's total and self seconds.
func (t *tracer) seconds(name string) (total, self float64) {
	if tot := t.totals[name]; tot != nil {
		return tot.Total.Seconds(), tot.Self.Seconds()
	}
	return 0, 0
}

func (t *tracer) count(name string) int64 {
	if tot := t.totals[name]; tot != nil {
		return tot.Count
	}
	return 0
}

// write saves the kept spans as JSON lines under one run id, behind a
// header line naming the host and how many spans were dropped.
func (t *tracer) write(path string, header map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header["spans_total"] = t.total
	header["spans_kept"] = len(t.kept)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	run := header["run_id"]
	for _, s := range t.kept {
		if err := enc.Encode(struct {
			Run any `json:"run"`
			spanRec
		}{run, s}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedDisk wraps a member disk: its Submit is a disksim.submit span
// and the completion callback the array hands it (the RAID fan-in) is a
// raid.fanin span.  Besides raid.Disk it forwards the optional methods
// the array calls outside telemetry: Name and CheckInvariants.
type tracedDisk struct {
	raid.Disk
	tr *tracer
}

func (d *tracedDisk) Submit(req storage.Request, done func(simtime.Time)) {
	d.tr.begin(spanDiskSubmit)
	d.Disk.Submit(req, func(at simtime.Time) {
		d.tr.begin(spanRAIDFanin)
		done(at)
		d.tr.end()
	})
	d.tr.end()
}

func (d *tracedDisk) Name() string { return d.Disk.(interface{ Name() string }).Name() }

func (d *tracedDisk) CheckInvariants(now simtime.Time) error {
	return d.Disk.(interface{ CheckInvariants(simtime.Time) error }).CheckInvariants(now)
}

// tracedDevice wraps a front device (the array, or the cache in front
// of it).  Its Submit is a span of the given name; when complete is
// non-empty the caller's completion callback is a span of that name.
type tracedDevice struct {
	storage.Device
	tr       *tracer
	submit   string
	complete string
}

func (d *tracedDevice) Submit(req storage.Request, done func(simtime.Time)) {
	d.tr.begin(d.submit)
	if d.complete != "" {
		inner := done
		done = func(at simtime.Time) {
			d.tr.begin(d.complete)
			inner(at)
			d.tr.end()
		}
	}
	d.Device.Submit(req, done)
	d.tr.end()
}

// timelineSteps counts the power steps a meter integrates over: the
// chassis and member timelines behind PSU and Sum sources.
func timelineSteps(src powersim.Source) int {
	switch s := src.(type) {
	case *powersim.Timeline:
		return s.Steps()
	case powersim.PSU:
		return timelineSteps(s.Source)
	case powersim.Sum:
		n := 0
		for _, c := range s {
			n += timelineSteps(c)
		}
		return n
	}
	return 0
}

// measurePower meters src over [t0, t1) with the seeded default meter,
// as the experiments package does, inside a powersim.measure span when
// tr is set.
func measurePower(tr *tracer, src powersim.Source, seed uint64, t0, t1 simtime.Time) []powersim.Sample {
	m := powersim.DefaultMeter(src)
	m.Seed = seed
	if tr == nil {
		return m.Measure(t0, t1)
	}
	tr.begin(spanPowerMeasure)
	s := m.Measure(t0, t1)
	tr.end()
	return s
}

// spanFile names the span file of one traced run, relative to the
// repository root the benchmark runs from.
func spanFile(workload string, seed uint64) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
