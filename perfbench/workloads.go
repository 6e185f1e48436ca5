package main

import (
	"fmt"
	"time"

	"repro/internal/blktrace"
	"repro/internal/cache"
	"repro/internal/disksim"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/powersim"
	"repro/internal/raid"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/storage"
	"repro/internal/synth"
)

// Workload sizes.  README.md explains how they were chosen.
const (
	webDuration  = 5 * simtime.Minute
	oltpDuration = 10 * simtime.Minute
	oltpIOPS     = 1000
	oltpCacheMB  = 256

	fleetArrays   = 256
	fleetWorkers  = 2
	fleetDuration = 15 * simtime.Second
	fleetIOPS     = 50000
	fleetClients  = 1024
	fleetReqBytes = 16 << 10
	fleetReadFrac = 0.6

	// replayWindow is the sim-time step whose host cost the window_*
	// metrics report on the replay workloads: a tenth of the 1 s
	// sampling cycle, so every rep yields at least 1000 windows.  On the
	// fleet the step is the barrier interval, fleet.DefaultWindow.
	replayWindow = 100 * simtime.Millisecond
)

var webLoads = []float64{1.0, 0.5}

// workload is one benchmark input set.  rep synthesizes it from the
// seed, runs it once (traced when tr is non-nil) and checks the
// simulated outcome's invariants; ladder returns the workload's own
// request stream and a spare array for the RAID planning ladder.
type workload struct {
	name   string
	rep    func(seed uint64, tr *tracer) (*repOut, error)
	ladder func(seed uint64) ([]storage.Request, *raid.Array, error)
}

var workloads = []workload{
	{name: "web-hdd", rep: webHDD, ladder: webLadder},
	{name: "oltp-cache-ssd", rep: oltpCacheSSD, ladder: oltpLadder},
	{name: "fleet-slo", rep: fleetSLO, ladder: fleetLadder},
}

// genSeed maps --seed to the generators' seed.  The generators read a
// zero seed as "use the default", so every seed is shifted by one.
func genSeed(seed uint64) uint64 { return seed + 1 }

// summaryRow is the simulated outcome of one replay or fleet run: the
// values the output check compares against expected.json.
type summaryRow struct {
	Name        string  `json:"name"`
	Offered     int64   `json:"offered"`
	Completed   int64   `json:"completed"`
	IOPS        float64 `json:"iops"`
	MBPS        float64 `json:"mbps"`
	MeanWatts   float64 `json:"mean_watts"`
	IOPSPerWatt float64 `json:"iops_per_watt"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	HitRate     float64 `json:"hit_rate"`
	Windows     int     `json:"windows"`
	Alerts      int     `json:"alerts"`
}

// repOut is one rep's host-side measurements and simulated outcome.
type repOut struct {
	setup, phase time.Duration
	allocs       allocDelta
	// windowsMs holds the host milliseconds each sim window took.
	windowsMs []float64
	rows      []summaryRow
	// layer holds the per-layer metrics of a traced rep.
	layer map[string]float64
}

func (r *repOut) offered() (n int64) {
	for _, row := range r.rows {
		n += row.Offered
	}
	return n
}

func (r *repOut) completed() (n int64) {
	for _, row := range r.rows {
		n += row.Completed
	}
	return n
}

// windowProbe is a kernel event that fires every replayWindow of sim time
// until a horizon and records the host time since its last firing.  It
// only reads the clock, so the model's events keep their order: ties
// are broken by scheduling order, which the probe shifts uniformly.
type windowProbe struct {
	until simtime.Time
	last  time.Time
	ms    []float64
	fired uint64
}

func (p *windowProbe) OnEvent(e *simtime.Engine, _ simtime.EventArg) {
	now := time.Now()
	p.ms = append(p.ms, float64(now.Sub(p.last))/float64(time.Millisecond))
	p.last = now
	p.fired++
	if next := e.Now().Add(replayWindow); next <= p.until {
		e.ScheduleEvent(next, p, simtime.EventArg{})
	}
}

// replaySystem is one array (optionally behind a cache) on its own
// engine, provisioned for one replay.
type replaySystem struct {
	engine *simtime.Engine
	array  *raid.Array
	cache  *cache.Cache
	front  storage.Device
	disks  []raid.Disk // bare member disks, for their stats
	probe  *windowProbe
}

// newReplaySystem provisions a pristine system.  Untraced it is built
// by the experiments package; traced it is assembled here with the
// same disk seed and name scheme as raid.NewHDDArray/NewSSDArray, each
// member wrapped in a tracedDisk and the front device in a
// tracedDevice.  The traced run's summary must equal the untraced one.
func newReplaySystem(cfg experiments.Config, kind experiments.ArrayKind, spec *experiments.CacheSpec, tr *tracer) (*replaySystem, error) {
	s := &replaySystem{}
	if tr == nil {
		var err error
		if spec == nil {
			s.engine, s.array, err = experiments.NewSystem(cfg, kind)
			s.front = s.array
		} else {
			s.engine, s.cache, s.array, err = experiments.NewCachedSystem(cfg, kind, *spec)
			s.front = s.cache
		}
		if err != nil {
			return nil, err
		}
		s.disks = s.array.Disks()
		return s, nil
	}

	cfg = experiments.NormalizeConfig(cfg)
	s.engine = simtime.NewEngine()
	params := raid.DefaultParams()
	var wrapped []raid.Disk
	switch kind {
	case experiments.SSDArray:
		params.Chassis = raid.SSDChassis()
		drive := disksim.MemorightSLC32()
		for i := 0; i < cfg.SSDs; i++ {
			p := drive
			p.Seed = drive.Seed + uint64(i)*1000003
			p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
			s.disks = append(s.disks, disksim.NewSSD(s.engine, p))
		}
	default:
		drive := disksim.Seagate7200()
		for i := 0; i < cfg.HDDs; i++ {
			p := drive
			p.Seed = drive.Seed + uint64(i)*1000003
			p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
			s.disks = append(s.disks, disksim.NewHDD(s.engine, p))
		}
	}
	for _, d := range s.disks {
		wrapped = append(wrapped, &tracedDisk{Disk: d, tr: tr})
	}
	var err error
	if s.array, err = raid.New(s.engine, params, wrapped); err != nil {
		return nil, err
	}
	if spec == nil {
		s.front = &tracedDevice{Device: s.array, tr: tr, submit: spanRAIDSubmit, complete: spanReplayComplete}
		return s, nil
	}
	backing := &tracedDevice{Device: s.array, tr: tr, submit: spanRAIDSubmit}
	if s.cache, err = cache.New(s.engine, backing, s.array.PowerSource(), spec.Params()); err != nil {
		return nil, err
	}
	s.front = &tracedDevice{Device: s.cache, tr: tr, submit: spanCacheSubmit, complete: spanReplayComplete}
	return s, nil
}

func (s *replaySystem) powerSource() powersim.Source {
	if s.cache != nil {
		return s.cache.PowerSource()
	}
	return s.array.PowerSource()
}

// run replays trace at load through the uniform filter and meters the
// run's wall power, as experiments.MeasureAtLoad does.
func (s *replaySystem) run(trace *blktrace.Trace, load float64, meterSeed uint64, tr *tracer) (summaryRow, *powerUse, error) {
	f := replay.UniformFilter{Proportion: load}
	if tr != nil {
		tr.begin(spanReplayFilter)
	}
	filtered := f.Apply(trace)
	if tr != nil {
		tr.end()
	}
	start := s.engine.Now()
	s.probe = &windowProbe{until: start.Add(filtered.Duration()), ms: make([]float64, 0, filtered.Duration()/replayWindow+1)}
	if first := start.Add(replayWindow); first <= s.probe.until {
		s.engine.ScheduleEvent(first, s.probe, simtime.EventArg{})
	}
	if tr != nil {
		tr.begin(spanReplayRun)
	}
	s.probe.last = time.Now()
	res, err := replay.Replay(s.engine, s.front, filtered, replay.Options{})
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return summaryRow{}, nil, err
	}
	src := s.powerSource()
	samples := measurePower(tr, src, meterSeed, res.Start, res.End)
	watts := powersim.MeanWatts(samples)
	eff := metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples))
	row := summaryRow{
		Name:        fmt.Sprintf("load-%g", load),
		Offered:     int64(filtered.NumIOs()),
		Completed:   res.Completed,
		IOPS:        res.IOPS,
		MBPS:        res.MBPS,
		MeanWatts:   watts,
		IOPSPerWatt: eff.IOPSPerWatt,
		P50Ns:       int64(res.P50Response),
		P99Ns:       int64(res.P99Response),
	}
	if s.cache != nil {
		row.HitRate = s.cache.Stats().HitRate()
	}
	return row, &powerUse{steps: timelineSteps(src), cycles: len(samples)}, nil
}

// check verifies the drained system's own invariants: every offered IO
// completed, the array's RAID-5 write-path algebra and member-disk
// accounting, and the cache's dirty-byte and backing-op conservation.
func (s *replaySystem) check(row summaryRow) error {
	if row.Completed != row.Offered {
		return fmt.Errorf("%s: %d of %d IOs completed", row.Name, row.Completed, row.Offered)
	}
	if err := s.array.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: %w", row.Name, err)
	}
	if s.cache == nil {
		return nil
	}
	if err := s.cache.CheckInvariants(s.engine.Now()); err != nil {
		return fmt.Errorf("%s: %w", row.Name, err)
	}
	st := s.cache.Stats()
	if got, want := st.BackingReads+st.BackingWrites, s.array.FrontServed(); got != want {
		return fmt.Errorf("%s: cache issued %d backing ops, array served %d", row.Name, got, want)
	}
	return nil
}

// powerUse counts the metering work of one Measure call.
type powerUse struct{ steps, cycles int }

// replayRep runs one rep of a replay workload: synthesize the trace,
// provision one fresh system per load, then (measured) filter, replay
// and meter each load in turn.
func replayRep(seed uint64, tr *tracer, kind experiments.ArrayKind, spec *experiments.CacheSpec, loads []float64, synthesize func(uint64) *blktrace.Trace) (*repOut, error) {
	cfg := experiments.Config{Seed: genSeed(seed)}
	out := &repOut{}
	t0 := time.Now()
	trace := synthesize(genSeed(seed))
	systems := make([]*replaySystem, len(loads))
	for i := range loads {
		var err error
		if systems[i], err = newReplaySystem(cfg, kind, spec, tr); err != nil {
			return nil, err
		}
	}
	out.setup = time.Since(t0)

	uses := make([]*powerUse, len(loads))
	ph := beginPhase()
	for i, load := range loads {
		row, use, err := systems[i].run(trace, load, cfg.Seed, tr)
		if err != nil {
			return nil, err
		}
		out.rows = append(out.rows, row)
		uses[i] = use
	}
	ph.end(out)

	for i, s := range systems {
		out.windowsMs = append(out.windowsMs, s.probe.ms...)
		if err := s.check(out.rows[i]); err != nil {
			return out, err
		}
	}
	if tr != nil {
		out.layer = replayLayers(tr, systems, uses, out)
	}
	return out, nil
}

func webHDD(seed uint64, tr *tracer) (*repOut, error) {
	return replayRep(seed, tr, experiments.HDDArray, nil, webLoads, webTrace)
}

func webTrace(s uint64) *blktrace.Trace {
	return synth.WebServerTrace(synth.WebServerParams{Duration: webDuration, Seed: s})
}

var oltpSpec = experiments.CacheSpec{Tier: cache.TierDRAM, CapacityMB: oltpCacheMB}

func oltpCacheSSD(seed uint64, tr *tracer) (*repOut, error) {
	return replayRep(seed, tr, experiments.SSDArray, &oltpSpec, []float64{1.0}, oltpTrace)
}

func oltpTrace(s uint64) *blktrace.Trace {
	return synth.OLTPTrace(synth.OLTPParams{Duration: oltpDuration, MeanIOPS: oltpIOPS, Seed: s})
}

// fleetRequests synthesizes the fleet workload's open-loop Poisson
// arrivals up front, so the measured phase routes a ready stream.
func fleetRequests(seed uint64) []fleet.ClientRequest {
	s := fleet.NewSynthStream(fleet.SynthParams{
		Duration:  fleetDuration,
		MeanIOPS:  fleetIOPS,
		Clients:   fleetClients,
		Size:      fleetReqBytes,
		ReadRatio: fleetReadFrac,
		Seed:      genSeed(seed),
	})
	reqs := make([]fleet.ClientRequest, 0, int(fleetIOPS*fleetDuration.Seconds()*1.01))
	for r, ok := s.Next(); ok; r, ok = s.Next() {
		reqs = append(reqs, r)
	}
	return reqs
}

// sliceStream replays pre-synthesized arrivals as a fleet.Stream over
// the synthetic stream's declared duration.
type sliceStream struct {
	reqs []fleet.ClientRequest
	next int
}

func (s *sliceStream) Next() (fleet.ClientRequest, bool) {
	if s.next == len(s.reqs) {
		return fleet.ClientRequest{}, false
	}
	s.next++
	return s.reqs[s.next-1], true
}

func (s *sliceStream) Duration() simtime.Duration { return fleetDuration }

// fleetSLO runs one rep of the fleet workload: build the stream, the
// fleet and the SLO engine, then (measured) Fleet.Run with the host
// time of every barrier window taken from Options.OnBarrier.
func fleetSLO(seed uint64, tr *tracer) (*repOut, error) {
	cfg := experiments.Config{Seed: genSeed(seed)}
	out := &repOut{}
	t0 := time.Now()
	stream := &sliceStream{reqs: fleetRequests(seed)}
	if tr != nil {
		tr.begin(spanFleetSetup)
	}
	f, err := fleet.New(cfg, experiments.HDDArray, fleetArrays, fleetWorkers)
	if tr != nil {
		tr.end()
	}
	if err != nil {
		return nil, err
	}
	sloEng, err := slo.NewEngine(slo.ExampleSpec())
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)

	var last time.Time
	var barriers []time.Time
	out.windowsMs = make([]float64, 0, fleetDuration/fleet.DefaultWindow+1)
	opts := fleet.Options{
		Policy: fleet.NewRoundRobin(),
		SLO:    sloEng,
		OnBarrier: func(simtime.Time) {
			now := time.Now()
			if !last.IsZero() {
				out.windowsMs = append(out.windowsMs, float64(now.Sub(last))/float64(time.Millisecond))
			}
			last = now
			if tr != nil {
				barriers = append(barriers, now)
			}
		},
	}
	if tr != nil {
		tr.begin(spanFleetRun)
	}
	ph := beginPhase()
	runStart := time.Now()
	res, err := f.Run(stream, opts)
	runEnd := time.Now()
	ph.end(out)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		prev := runStart
		for _, b := range barriers {
			tr.add(spanFleetWindow, prev.Sub(tr.t0), b.Sub(tr.t0))
			prev = b
		}
		tr.add(spanFleetFinish, prev.Sub(tr.t0), runEnd.Sub(tr.t0))
		tr.end()
	}
	out.rows = []summaryRow{{
		Name:        "fleet",
		Offered:     res.Offered,
		Completed:   res.Completed,
		IOPS:        res.IOPS,
		MBPS:        res.MBPS,
		MeanWatts:   res.MeanWatts,
		IOPSPerWatt: res.IOPSPerWatt,
		P50Ns:       int64(res.P50Response),
		P99Ns:       int64(res.P99Response),
		Windows:     res.Windows,
		Alerts:      len(sloEng.Alerts()),
	}}
	if res.Completed != res.Offered {
		return out, fmt.Errorf("fleet: %d of %d IOs completed", res.Completed, res.Offered)
	}
	for i, a := range f.Arrays() {
		if err := a.CheckInvariants(); err != nil {
			return out, fmt.Errorf("fleet array %d: %w", i, err)
		}
	}
	if tr != nil {
		out.layer = fleetLayers(tr, f, res, out.rows[0].Alerts, cfg.Seed)
	}
	return out, nil
}

// traceRequests flattens a trace filtered at full load into requests.
func traceRequests(t *blktrace.Trace) []storage.Request {
	t = replay.UniformFilter{Proportion: 1}.Apply(t)
	reqs := make([]storage.Request, 0, t.NumIOs())
	for _, b := range t.Bunches {
		for _, p := range b.Packages {
			reqs = append(reqs, p.Request())
		}
	}
	return reqs
}

func webLadder(seed uint64) ([]storage.Request, *raid.Array, error) {
	_, a, err := experiments.NewSystem(experiments.Config{Seed: genSeed(seed)}, experiments.HDDArray)
	return traceRequests(webTrace(genSeed(seed))), a, err
}

func oltpLadder(seed uint64) ([]storage.Request, *raid.Array, error) {
	_, a, err := experiments.NewSystem(experiments.Config{Seed: genSeed(seed)}, experiments.SSDArray)
	return traceRequests(oltpTrace(genSeed(seed))), a, err
}

func fleetLadder(seed uint64) ([]storage.Request, *raid.Array, error) {
	_, a, err := experiments.NewSystem(experiments.Config{Seed: genSeed(seed)}, experiments.HDDArray)
	var reqs []storage.Request
	for _, r := range fleetRequests(seed) {
		reqs = append(reqs, r.Req)
	}
	return reqs, a, err
}
