package replay

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/blktrace"
	"repro/internal/raid"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// This file implements sharded open-loop replay: the event loop is
// partitioned across per-disk simulation engines that advance in
// conservative time windows under a shared-clock coordinator.
//
// Member disks of a RAID array never interact directly — every
// dependency flows through the controller, and the controller's
// behaviour during open-loop replay is fully determined by the trace:
// each package's member-disk operations and their issue time
// tp = start + bunchTime + CmdOverhead are known at plan time.  The
// single cross-disk coupling is the read-modify-write chain (a "join"):
// phase-2 writes issue at tc = max(finish of the stripe's pre-reads),
// with no added controller latency.  The coordinator therefore advances
// all shards to the earliest bound E at which anything cross-shard can
// happen —
//
//	E = min( next unplanned admission time,
//	         min over outstanding joins of a lower bound on tc )
//
// — exchanges completions at that barrier (null-message style, no
// rollback), resolves any join whose pre-reads have all finished
// (provably tc == E exactly: all finishes <= E from the drain, and
// tc >= lb >= E by construction), and schedules the phase-2 writes at
// tc on their target shards.  The lower bound for an unfinished
// pre-read is max(tp + MinServiceTime(disk), NextEventAt(shard)); both
// terms are conservative, so no event ever needs to be undone.
//
// Trace bunches are admitted in batches (BatchBunches at a time): every
// phase-1 operation of a batch is pre-scheduled at its known tp, so
// shards run long event sequences between coordinator handoffs.
// Per-disk arrival order equals the serial engine's (plan order at
// equal timestamps, timestamp order otherwise), and each drive's RNG
// stream depends only on its own arrival sequence, so results are
// bit-identical to the serial path at any shard count; the golden and
// differential gates in internal/check pin that equivalence.

// DefaultBatchBunches is the number of trace bunches admitted per
// coordinator refill.
const DefaultBatchBunches = 4096

// BunchSource is the read-only trace view the sharded executor
// replays.  Both *blktrace.Trace and *blktrace.MappedTrace implement
// it; the mapped form serves packages zero-copy out of the file
// mapping.
type BunchSource interface {
	Label() string
	NumBunches() int
	NumIOs() int
	Duration() simtime.Duration
	BunchTime(i int) simtime.Duration
	BunchSize(i int) int
	Package(i, pkg int) blktrace.IOPackage
}

// ShardedOptions tune a sharded replay run.
type ShardedOptions struct {
	// SamplingCycle is the per-interval reporting cycle (default 1s).
	SamplingCycle simtime.Duration
	// BatchBunches is the admission batch size; zero means
	// DefaultBatchBunches.
	BatchBunches int
	// Observer receives issues (in trace order, at plan time) and
	// completions (in deterministic (finish, plan-order) order, at
	// window barriers).
	Observer Observer
	// Telemetry is the coordinator-side replay probe.  Issue events are
	// recorded at plan time, so the in-flight depth watermark reflects
	// admission batches rather than instantaneous queueing; counters and
	// latency histograms match the serial run exactly.
	Telemetry *telemetry.ReplayProbe
}

// ReplaySharded replays src against array with one event loop per
// engine.  The array must have been built over the same engines slice
// (NewHDDArrayEngines/NewSSDArrayEngines), so that member disk i lives
// on engines[i%len(engines)].  Replay is open-loop only, and the array
// configuration (including any failed member) must stay static for the
// duration of the run.  With len(engines)==1 the executor runs inline
// on the caller's goroutine; with more it runs one goroutine per shard.
func ReplaySharded(engines []*simtime.Engine, array *raid.Array, src BunchSource, opts ShardedOptions) (*Result, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("replay: sharded replay needs at least one engine")
	}
	start := engines[0].Now()
	for i, e := range engines[1:] {
		if e.Now() != start {
			return nil, fmt.Errorf("replay: shard %d clock %v != shard 0 clock %v", i+1, e.Now(), start)
		}
	}
	cycle := opts.SamplingCycle
	if cycle <= 0 {
		cycle = simtime.Second
	}
	batch := opts.BatchBunches
	if batch <= 0 {
		batch = DefaultBatchBunches
	}

	disks := array.Disks()
	r := &shardedRun{
		engines:     engines,
		array:       array,
		src:         src,
		res:         &Result{Trace: src.Label(), Start: start},
		obs:         opts.Observer,
		tel:         opts.Telemetry,
		start:       start,
		cmdOverhead: array.Params().CmdOverhead,
		minService:  make([]simtime.Duration, len(disks)),
		reqs:        make([]reqState, 0, src.NumIOs()),
		completions: make([]completion, 0, src.NumIOs()),
		joins:       make([]int32, 0, 64),
	}
	for i, d := range disks {
		// A one-nanosecond floor keeps the bound conservative even for a
		// hypothetical member model without a fixed command overhead.
		r.minService[i] = simtime.Nanosecond
		if ms, ok := d.(interface{ MinServiceTime() simtime.Duration }); ok {
			if m := ms.MinServiceTime(); m > r.minService[i] {
				r.minService[i] = m
			}
		}
	}
	r.shards = make([]shardCtx, len(engines))
	for i := range r.shards {
		r.shards[i] = shardCtx{run: r, engine: engines[i]}
	}
	ls := simtime.NewLockstep(len(engines), func(i int, limit simtime.Time) {
		engines[i].DrainThrough(limit)
	})
	defer ls.Close()

	nb := src.NumBunches()
	nextBunch := 0
	for {
		e := simtime.MaxTime
		planBound := simtime.MaxTime
		if nextBunch < nb {
			planBound = start.Add(src.BunchTime(nextBunch) + r.cmdOverhead)
			e = planBound
		}
		for _, gi := range r.joins {
			if lb := r.joinBound(gi); lb < e {
				e = lb
			}
		}
		if e == simtime.MaxTime {
			// No unplanned bunches and no joins: every remaining event is
			// internal to its shard.  Drain everything and finish.
			ls.DrainThrough(simtime.MaxTime)
			r.processCompletions()
			break
		}
		ls.DrainThrough(e)
		r.processCompletions()
		if e == planBound {
			nextBunch = r.planBatch(nextBunch, batch)
		}
	}

	// Pin every shard clock to the common end time so post-run invariant
	// checks (busy time <= wall time) see a consistent clock.
	end := start
	for _, e := range engines {
		if e.Now() > end {
			end = e.Now()
		}
	}
	for _, e := range engines {
		e.RunUntil(end)
	}

	finalize(r.res, r.completions, start.Add(src.Duration()), cycle)
	return r.res, nil
}

// shardedRun is the coordinator state of one ReplaySharded call.
type shardedRun struct {
	engines     []*simtime.Engine
	array       *raid.Array
	src         BunchSource
	res         *Result
	obs         Observer
	tel         *telemetry.ReplayProbe
	start       simtime.Time
	cmdOverhead simtime.Duration
	minService  []simtime.Duration

	// Append-only tables; everything cross-references by index so slice
	// growth never invalidates a reference.
	ops    []shardedOp
	groups []opGroup
	reqs   []reqState

	joins       []int32 // groups with pre-reads outstanding and writes pending
	shards      []shardCtx
	completions []completion
	doneScratch []opDone // barrier merge buffer, reused across windows
}

// shardedOp is one member-disk operation in flight or completed.
type shardedOp struct {
	disk   int32
	write  bool
	done   bool
	group  int32
	tp     simtime.Time // admission time on the disk's shard
	finish simtime.Time // valid once done
	req    storage.Request
	doneFn func(simtime.Time) // built at plan time: the drain loop allocates nothing
}

// opGroup mirrors one raid.PlannedGroup at run time.
type opGroup struct {
	req        int32
	joinPos    int32 // index into run.joins, -1 when not listed
	readsLeft  int32
	writesLeft int32
	nReads     int32
	readsStart int32 // ops[readsStart : readsStart+nReads] are the pre-reads
	hasWrites  bool
	tp         simtime.Time
	maxRead    simtime.Time
	maxFinish  simtime.Time
	writes     []raid.PlannedOp // phase-2 ops, admitted when the join resolves
}

// reqState tracks one trace package (= one array request).
type reqState struct {
	bunch, pkg int32
	groupsLeft int32
	issue      simtime.Time
	maxFinish  simtime.Time
	bytes      int64
}

// opDone is a completion recorded by a shard during a window drain.
type opDone struct {
	op     int32
	finish simtime.Time
}

// shardCtx is the per-shard execution context.  During a drain only the
// shard's own goroutine touches it; the coordinator reads and resets it
// between windows (the lock-step barrier orders the accesses).
type shardCtx struct {
	run    *shardedRun
	engine *simtime.Engine
	buf    []opDone
}

// OnEvent implements simtime.Handler: an admission event fired at the
// op's issue time; submit it to its disk.  arg.I64 is the op index.
func (sc *shardCtx) OnEvent(_ *simtime.Engine, arg simtime.EventArg) {
	op := &sc.run.ops[arg.I64]
	sc.run.array.Disks()[op.disk].Submit(op.req, op.doneFn)
}

func (r *shardedRun) shardOf(disk int32) *shardCtx {
	return &r.shards[int(disk)%len(r.shards)]
}

// joinBound returns a conservative lower bound on the join's resolution
// time tc = max over its pre-reads' finish times.
func (r *shardedRun) joinBound(gi int32) simtime.Time {
	g := &r.groups[gi]
	var lb simtime.Time
	for i := g.readsStart; i < g.readsStart+g.nReads; i++ {
		op := &r.ops[i]
		var b simtime.Time
		if op.done {
			b = op.finish
		} else {
			b = op.tp.Add(r.minService[op.disk])
			if next := r.shardOf(op.disk).engine.NextEventAt(); next != simtime.MaxTime && next > b {
				b = next
			}
		}
		if b > lb {
			lb = b
		}
	}
	return lb
}

// processCompletions applies every completion the shards recorded in
// the last window, in an order deterministic for any shard count:
// (finish time, plan order).  Within one window this matches the global
// order too — a completion lands in the window whose bound first covers
// its finish time, so barrier grouping never reorders across windows.
func (r *shardedRun) processCompletions() {
	buf := r.doneScratch[:0]
	for i := range r.shards {
		sc := &r.shards[i]
		buf = append(buf, sc.buf...)
		sc.buf = sc.buf[:0]
	}
	slices.SortFunc(buf, func(a, b opDone) int {
		if a.finish != b.finish {
			return cmp.Compare(a.finish, b.finish)
		}
		return cmp.Compare(a.op, b.op)
	})
	for _, d := range buf {
		r.completeOp(d.op, d.finish)
	}
	r.doneScratch = buf[:0]
}

// completeOp retires one member-disk operation at a window barrier.
func (r *shardedRun) completeOp(oi int32, finish simtime.Time) {
	op := &r.ops[oi]
	op.done = true
	op.finish = finish
	r.array.ObserveDiskOp(int(op.disk), op.write, op.tp, finish, op.req.Size)
	g := &r.groups[op.group]
	if op.write {
		g.writesLeft--
		if finish > g.maxFinish {
			g.maxFinish = finish
		}
		if g.writesLeft == 0 && g.readsLeft == 0 {
			r.groupDone(op.group, g.maxFinish)
		}
		return
	}
	g.readsLeft--
	if finish > g.maxRead {
		g.maxRead = finish
	}
	if g.readsLeft != 0 {
		return
	}
	if !g.hasWrites {
		r.groupDone(op.group, g.maxRead)
		return
	}
	// Join resolved: the phase-2 writes issue at tc with no added
	// controller latency.  tc equals the current window bound exactly
	// (every pre-read finish is <= the bound from the drain, and the
	// bound was <= joinBound <= tc), so scheduling on the target shards
	// is always legal.
	r.removeJoin(op.group)
	tc := g.maxRead
	writes := g.writes
	g.writes = nil
	for _, w := range writes {
		r.scheduleOp(w, op.group, tc, true)
	}
}

// groupDone retires one dependency group; finish is the latest
// completion of its final phase.
func (r *shardedRun) groupDone(gi int32, finish simtime.Time) {
	g := &r.groups[gi]
	req := &r.reqs[g.req]
	if finish > req.maxFinish {
		req.maxFinish = finish
	}
	req.groupsLeft--
	if req.groupsLeft == 0 {
		r.completeRequest(g.req)
	}
}

// completeRequest records one finished trace package.
func (r *shardedRun) completeRequest(ri int32) {
	req := &r.reqs[ri]
	finish := req.maxFinish
	r.res.Completed++
	if r.obs != nil {
		r.obs.ObserveComplete(int(req.bunch), int(req.pkg), req.issue, finish)
	}
	r.tel.OnComplete(int(req.bunch), int(req.pkg), req.issue, finish, req.bytes)
	r.completions = append(r.completions, completion{
		finish:   finish,
		issue:    req.issue,
		bytes:    req.bytes,
		response: finish.Sub(req.issue),
	})
}

// addJoin and removeJoin maintain the outstanding-join set with O(1)
// swap-removal.
func (r *shardedRun) addJoin(gi int32) {
	r.groups[gi].joinPos = int32(len(r.joins))
	r.joins = append(r.joins, gi)
}

func (r *shardedRun) removeJoin(gi int32) {
	pos := r.groups[gi].joinPos
	last := r.joins[len(r.joins)-1]
	r.joins[pos] = last
	r.groups[last].joinPos = pos
	r.joins = r.joins[:len(r.joins)-1]
	r.groups[gi].joinPos = -1
}

// scheduleOp appends one op to the global table and schedules its
// admission on its disk's shard.  The completion callback is built here,
// on the coordinator, so the shard's drain loop performs no allocation.
func (r *shardedRun) scheduleOp(pop raid.PlannedOp, gi int32, at simtime.Time, write bool) {
	oi := int32(len(r.ops))
	sc := r.shardOf(int32(pop.Disk))
	r.ops = append(r.ops, shardedOp{
		disk:  int32(pop.Disk),
		write: write,
		group: gi,
		tp:    at,
		req:   pop.Req,
		doneFn: func(t simtime.Time) {
			sc.buf = append(sc.buf, opDone{op: oi, finish: t})
		},
	})
	sc.engine.ScheduleEvent(at, sc, simtime.EventArg{I64: int64(oi)})
}

// planBatch admits up to batch bunches starting at nextBunch: every
// package is planned through the RAID controller and its phase-1 ops
// are scheduled at their known issue times.  Returns the new cursor.
func (r *shardedRun) planBatch(nextBunch, batch int) int {
	nb := r.src.NumBunches()
	end := nextBunch + batch
	if end > nb {
		end = nb
	}
	for bi := nextBunch; bi < end; bi++ {
		issue := r.start.Add(r.src.BunchTime(bi))
		tp := issue.Add(r.cmdOverhead)
		n := r.src.BunchSize(bi)
		for pi := 0; pi < n; pi++ {
			p := r.src.Package(bi, pi)
			r.res.Issued++
			if r.obs != nil {
				r.obs.ObserveIssue(bi, pi, issue)
			}
			r.tel.OnIssue(bi, pi, issue)
			r.planPackage(int32(bi), int32(pi), issue, tp, p)
		}
	}
	return end
}

// planPackage maps one trace package through the controller and
// schedules its phase-1 operations.
func (r *shardedRun) planPackage(bunch, pkg int32, issue, tp simtime.Time, p blktrace.IOPackage) {
	ri := int32(len(r.reqs))
	r.reqs = append(r.reqs, reqState{bunch: bunch, pkg: pkg, issue: issue, bytes: p.Size})
	groups := r.array.PlanRequest(p.Request())
	r.reqs[ri].groupsLeft = int32(len(groups))
	for _, g := range groups {
		gi := int32(len(r.groups))
		og := opGroup{
			req:        ri,
			joinPos:    -1,
			nReads:     int32(len(g.Reads)),
			readsLeft:  int32(len(g.Reads)),
			writesLeft: int32(len(g.Writes)),
			hasWrites:  len(g.Writes) > 0,
			readsStart: int32(len(r.ops)),
			tp:         tp,
		}
		r.groups = append(r.groups, og)
		switch {
		case og.nReads > 0:
			for _, op := range g.Reads {
				r.scheduleOp(op, gi, tp, false)
			}
			if og.hasWrites {
				// A read-modify-write chain: the only cross-shard
				// dependency in the whole system.
				r.groups[gi].writes = g.Writes
				r.addJoin(gi)
			}
		case og.hasWrites:
			for _, op := range g.Writes {
				r.scheduleOp(op, gi, tp, true)
			}
		default:
			// No member ops at all (e.g. a degraded stripe whose every
			// target is the failed member): the serial path completes it
			// one kernel event after the command overhead, i.e. at tp.
			r.groupDone(gi, tp)
		}
	}
}
