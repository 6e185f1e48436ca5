// Package raid models the disk-array controller the paper tests: a
// RAID-5 enterprise array with a 128 KB strip size and its controller
// cache disabled, plus a RAID-0 mode used by ablation experiments.
//
// The array implements storage.Device on top of per-disk models from
// internal/disksim.  Reads are striped across member disks.  RAID-5
// writes follow the classic two cases:
//
//   - full-stripe writes compute parity in the controller and write all
//     member strips concurrently;
//   - partial writes perform read-modify-write: old data and old parity
//     are read first, then new data and new parity are written.
//
// Power: member-disk timelines plus a constant chassis draw (controller,
// fans, backplane) feed a PSU model producing the 220 V AC wall power
// the paper's Hall-effect meter clamps.  Fig. 7's experiment — idle
// power versus populated disk count — falls straight out of this
// structure.
package raid

import (
	"fmt"

	"repro/internal/disksim"
	"repro/internal/powersim"
	"repro/internal/simtime"
	"repro/internal/storage"
	"repro/internal/telemetry"
)

// Level selects the array organisation.
type Level int

const (
	// RAID0 stripes without redundancy.
	RAID0 Level = iota
	// RAID5 stripes with rotating parity.
	RAID5
)

// String names the level.
func (l Level) String() string {
	switch l {
	case RAID0:
		return "RAID0"
	case RAID5:
		return "RAID5"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Disk is a member device: block service plus a power timeline.
// *disksim.HDD and *disksim.SSD both satisfy it.
type Disk interface {
	storage.Device
	Timeline() *powersim.Timeline
}

// ChassisParams model the non-disk components of the enclosure:
// controller, fans, motherboard (paper Section VI-A) and the power
// supply converting to wall power.
type ChassisParams struct {
	// BaseW is the constant DC draw of the non-disk components.
	BaseW float64
	// PSUEfficiency converts DC load to AC wall power.
	PSUEfficiency float64
	// PSUStandbyW is constant AC-side loss.
	PSUStandbyW float64
}

// Params configure an array.
type Params struct {
	// Level is RAID0 or RAID5.
	Level Level
	// StripBytes is the per-disk strip size (paper: 128 KB).
	StripBytes int64
	// CmdOverhead is controller latency added to each array request.
	CmdOverhead simtime.Duration
	// Chassis models the enclosure's non-disk power.
	Chassis ChassisParams
}

// HDDChassis returns chassis parameters calibrated so the reproduction
// of Fig. 7 keeps the paper's shape: the empty enclosure draws ~23 W at
// the wall and member-disk power dominates beyond three disks.
func HDDChassis() ChassisParams {
	return ChassisParams{BaseW: 18, PSUEfficiency: 0.85, PSUStandbyW: 2}
}

// SSDChassis returns chassis parameters calibrated to the paper's
// measured 195.8 W idle for the 4-SSD array (Section VI-G): the SSD
// enclosure is a full SAN controller whose base draw dwarfs its drives.
func SSDChassis() ChassisParams {
	return ChassisParams{BaseW: 150.7, PSUEfficiency: 0.85, PSUStandbyW: 2}
}

// DefaultParams returns the paper's RAID-5 configuration: 128 KB strip,
// cache disabled (no cache model exists at all), HDD chassis.
func DefaultParams() Params {
	return Params{
		Level:       RAID5,
		StripBytes:  128 * 1024,
		CmdOverhead: 50 * simtime.Microsecond,
		Chassis:     HDDChassis(),
	}
}

// Stats count controller-level operations.
type Stats struct {
	// Reads and Writes count array-level requests served.
	Reads, Writes int64
	// DiskReads and DiskWrites count member-disk operations issued,
	// including parity traffic.
	DiskReads, DiskWrites int64
	// ParityReads and ParityWrites count the parity-disk portion.
	ParityReads, ParityWrites int64
	// FullStripeWrites and RMWStripes classify write stripes.
	FullStripeWrites, RMWStripes int64
	// ReconstructReads counts reads served by XOR-reconstruction from
	// the surviving members (degraded mode).
	ReconstructReads int64
	// DegradedStripes counts write stripes planned in degraded mode.
	DegradedStripes int64
	// RebuildReads and RebuildWrites count background-rebuild member
	// operations (survivor reads, replacement writes).  They ride
	// separate counters from DiskReads/DiskWrites so the foreground
	// write-path algebra stays exactly checkable.
	RebuildReads, RebuildWrites int64
	// RebuildBytes counts bytes written to the replacement member.
	RebuildBytes int64
	// RebuildsStarted and RebuildsCompleted count rebuild operations.
	RebuildsStarted, RebuildsCompleted int64
}

// Array is a simulated disk array.
type Array struct {
	engine *simtime.Engine
	params Params
	disks  []Disk

	chassis *powersim.Timeline
	failed  int // index of the failed member, or -1 when healthy
	stats   Stats
	tel     *telemetry.RAIDProbe

	rebuild *rebuildRun // in-flight background rebuild, or nil

	// Serial command path: free lists of per-IO records and scratch
	// slices reused by every plan, so a warmed array issues commands
	// without allocating.  See DESIGN.md §8 for who owns each record.
	freeCmds    []*pendingCmd
	freeFanins  []*fanin
	freeStripes []*stripeWrite
	segScratch  []segment
	planScratch []stripePlan
	opScratch   []PlannedOp
}

// diskAttacher is satisfied by disk models that accept a telemetry
// probe (HDD and SSD both do).
type diskAttacher interface {
	AttachTelemetry(*telemetry.DiskProbe)
}

// named is satisfied by disk models that expose their configured name.
type named interface {
	Name() string
}

// AttachTelemetry wires the array and its member disks into s: stripe
// path and parity counters on the controller, a per-disk queue-depth
// probe gauge, and a DiskProbe handed to each member that accepts one.
// A nil Set detaches nothing and costs nothing — probe methods on nil
// receivers are no-ops.
func (a *Array) AttachTelemetry(s *telemetry.Set) {
	if s == nil {
		return
	}
	a.tel = telemetry.NewRAIDProbe(s)
	reg := s.Registry()
	for i, d := range a.disks {
		label := fmt.Sprintf("%d", i)
		if n, ok := d.(named); ok && n.Name() != "" {
			label = n.Name()
		}
		if qd, ok := d.(interface{ QueueDepth() int }); ok {
			reg.ProbeGauge(fmt.Sprintf("raid.disk.%s.qdepth", label), func() float64 {
				return float64(qd.QueueDepth())
			})
		}
		if at, ok := d.(diskAttacher); ok {
			at.AttachTelemetry(telemetry.NewDiskProbe(s, label, i))
		}
	}
}

// AttachTelemetryShards wires controller-level probes into parent and
// each member disk's probe into shards[i%len(shards)] — the same
// disk-to-shard mapping as NewHDDArrayEngines — so during a sharded
// replay every disk records only into its own shard's Set and no
// cross-goroutine writes occur.  After the run the caller merges the
// shard registries into the parent in shard order, which is
// deterministic for any shard count (counters add, watermarks max).
// Unlike AttachTelemetry this registers no queue-depth probe gauges:
// sampling callbacks would read disk state from outside its shard.
func (a *Array) AttachTelemetryShards(parent *telemetry.Set, shards []*telemetry.Set) {
	if parent == nil || len(shards) == 0 {
		return
	}
	a.tel = telemetry.NewRAIDProbe(parent)
	for i, d := range a.disks {
		label := fmt.Sprintf("%d", i)
		if n, ok := d.(named); ok && n.Name() != "" {
			label = n.Name()
		}
		if at, ok := d.(diskAttacher); ok {
			at.AttachTelemetry(telemetry.NewDiskProbe(shards[i%len(shards)], label, i))
		}
	}
}

// FailDisk marks member i failed (RAID5 only): subsequent reads that
// touch it are served by reconstruction from the survivors, and writes
// follow the degraded paths.  A second failure is rejected — RAID5
// tolerates exactly one.
func (a *Array) FailDisk(i int) error {
	if a.params.Level != RAID5 {
		return fmt.Errorf("raid: %v has no redundancy to run degraded", a.params.Level)
	}
	if i < 0 || i >= len(a.disks) {
		return fmt.Errorf("raid: no member %d", i)
	}
	if a.failed >= 0 {
		return fmt.Errorf("raid: member %d already failed; RAID5 tolerates one failure", a.failed)
	}
	a.failed = i
	return nil
}

// RestoreDisk brings the offline member back into the array.  Energy
// studies use FailDisk/RestoreDisk as a reversible logical spin-down
// (eRAID-style): while one member rests, its reads are served by
// reconstruction.  A production array would resynchronise stale strips
// on restore; the performance model treats restoration as immediate
// and leaves data consistency out of scope (no payload is stored).
func (a *Array) RestoreDisk() {
	a.failed = -1
}

// Healthy reports whether all members are online.
func (a *Array) Healthy() bool { return a.failed < 0 }

// New assembles an array over the given member disks.  RAID5 requires
// at least three members; RAID0 at least one.  All members should have
// equal capacity; the smallest bounds the geometry.
func New(engine *simtime.Engine, params Params, disks []Disk) (*Array, error) {
	if params.StripBytes <= 0 {
		return nil, fmt.Errorf("raid: strip size must be positive, got %d", params.StripBytes)
	}
	min := 1
	if params.Level == RAID5 {
		min = 3
	}
	if len(disks) < min {
		return nil, fmt.Errorf("raid: %v needs >= %d disks, got %d", params.Level, min, len(disks))
	}
	if params.Level != RAID0 && params.Level != RAID5 {
		return nil, fmt.Errorf("raid: unsupported level %v", params.Level)
	}
	return &Array{
		engine:  engine,
		params:  params,
		disks:   disks,
		chassis: powersim.NewTimeline(params.Chassis.BaseW),
		failed:  -1,
	}, nil
}

// NewHDDArray builds a RAID array of n identical HDDs, seeding each
// drive's RNG distinctly so rotational latencies decorrelate.
func NewHDDArray(engine *simtime.Engine, params Params, n int, drive disksim.HDDParams) (*Array, error) {
	return NewHDDArrayEngines([]*simtime.Engine{engine}, params, n, drive)
}

// NewHDDArrayEngines builds the same array as NewHDDArray but attaches
// member i to engines[i%len(engines)], the shard-assignment contract of
// the sharded replay executor.  The per-drive seed and name scheme is
// identical to the single-engine constructor, so every member behaves
// bit-for-bit as in a serial run; with one engine the two constructors
// are the same.  The array itself (command overhead, completions for
// the serial path) lives on engines[0].
func NewHDDArrayEngines(engines []*simtime.Engine, params Params, n int, drive disksim.HDDParams) (*Array, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("raid: need at least one engine")
	}
	disks := make([]Disk, n)
	for i := range disks {
		p := drive
		p.Seed = drive.Seed + uint64(i)*1000003
		p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
		disks[i] = disksim.NewHDD(engines[i%len(engines)], p)
	}
	return New(engines[0], params, disks)
}

// NewSSDArray builds a RAID array of n identical SSDs.
func NewSSDArray(engine *simtime.Engine, params Params, n int, drive disksim.SSDParams) (*Array, error) {
	return NewSSDArrayEngines([]*simtime.Engine{engine}, params, n, drive)
}

// NewSSDArrayEngines is the sharded counterpart of NewSSDArray; see
// NewHDDArrayEngines for the shard-assignment contract.
func NewSSDArrayEngines(engines []*simtime.Engine, params Params, n int, drive disksim.SSDParams) (*Array, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("raid: need at least one engine")
	}
	disks := make([]Disk, n)
	for i := range disks {
		p := drive
		p.Seed = drive.Seed + uint64(i)*1000003
		p.Name = fmt.Sprintf("%s-%d", drive.Name, i)
		disks[i] = disksim.NewSSD(engines[i%len(engines)], p)
	}
	return New(engines[0], params, disks)
}

// Capacity implements storage.Device: usable data capacity.
func (a *Array) Capacity() int64 {
	per := a.minDiskCapacity()
	switch a.params.Level {
	case RAID5:
		return per * int64(len(a.disks)-1)
	default:
		return per * int64(len(a.disks))
	}
}

func (a *Array) minDiskCapacity() int64 {
	min := a.disks[0].Capacity()
	for _, d := range a.disks[1:] {
		if c := d.Capacity(); c < min {
			min = c
		}
	}
	return min
}

// Disks exposes the member devices (experiments inspect per-disk stats).
func (a *Array) Disks() []Disk { return a.disks }

// Stats returns a snapshot of controller counters.
func (a *Array) Stats() Stats { return a.stats }

// FrontServed reports the total array-level requests served (reads plus
// writes).  Tiered front ends (the cache layer) cross-check this
// against their own issued-operation counters: after a drained run,
// every miss fill, bypass and writeback must have reached the array.
func (a *Array) FrontServed() int64 { return a.stats.Reads + a.stats.Writes }

// Params returns the array configuration.
func (a *Array) Params() Params { return a.params }

// PowerSource returns the wall-power source for this array: disks plus
// chassis behind the PSU.  Feed it to a powersim.Meter.
func (a *Array) PowerSource() powersim.Source {
	sum := powersim.Sum{a.chassis}
	for _, d := range a.disks {
		sum = append(sum, d.Timeline())
	}
	eff := a.params.Chassis.PSUEfficiency
	if eff <= 0 || eff > 1 {
		eff = 1
	}
	return powersim.PSU{Source: sum, Efficiency: eff, StandbyW: a.params.Chassis.PSUStandbyW}
}

// memberChecker is satisfied by disk models that can self-verify their
// accounting (disksim.HDD and disksim.SSD); CheckInvariants delegates
// to it without coupling raid to the concrete model types.
type memberChecker interface {
	CheckInvariants(now simtime.Time) error
}

// CheckInvariants verifies the controller's bookkeeping against the
// RAID-5 write-path algebra and delegates to each member disk's own
// self-check.  Call it after the simulation has drained.
//
// For a healthy RAID-5 run the read-modify-write accounting is exact:
// every full-stripe write and every RMW stripe writes parity once, and
// only RMW stripes pre-read parity.  Once the array has run degraded
// (a failed member absorbed stripes or reconstruct-reads), parity
// traffic may legitimately be skipped, so the equalities relax to
// upper bounds.
func (a *Array) CheckInvariants() error {
	s := a.stats
	degradedRan := s.DegradedStripes > 0 || s.ReconstructReads > 0 || a.failed >= 0
	switch a.params.Level {
	case RAID5:
		if !degradedRan {
			if s.ParityWrites != s.FullStripeWrites+s.RMWStripes {
				return fmt.Errorf("raid: parity writes %d != full-stripe %d + RMW %d",
					s.ParityWrites, s.FullStripeWrites, s.RMWStripes)
			}
			if s.ParityReads != s.RMWStripes {
				return fmt.Errorf("raid: parity reads %d != RMW stripes %d", s.ParityReads, s.RMWStripes)
			}
		} else {
			if s.ParityWrites > s.FullStripeWrites+s.RMWStripes {
				return fmt.Errorf("raid: degraded parity writes %d exceed full-stripe %d + RMW %d",
					s.ParityWrites, s.FullStripeWrites, s.RMWStripes)
			}
			if s.ParityReads > s.RMWStripes {
				return fmt.Errorf("raid: degraded parity reads %d exceed RMW stripes %d", s.ParityReads, s.RMWStripes)
			}
		}
	default:
		if s.ParityReads != 0 || s.ParityWrites != 0 || s.FullStripeWrites != 0 || s.RMWStripes != 0 {
			return fmt.Errorf("raid: %v recorded parity traffic %+v", a.params.Level, s)
		}
	}
	// Rebuild accounting: every chunk reads from all survivors then
	// writes the replacement once, so after a completed rebuild the
	// reads are exactly (n-1) per write; a rebuild caught mid-chunk by
	// the end of the run may hold one chunk's reads with no write yet.
	if s.RebuildWrites > 0 || s.RebuildReads > 0 {
		survivors := int64(len(a.disks) - 1)
		lo, hi := survivors*s.RebuildWrites, survivors*(s.RebuildWrites+1)
		if a.rebuild == nil {
			hi = lo
		}
		if s.RebuildReads < lo || s.RebuildReads > hi {
			return fmt.Errorf("raid: rebuild reads %d outside [%d,%d] for %d writes over %d survivors",
				s.RebuildReads, lo, hi, s.RebuildWrites, survivors)
		}
	}
	if s.DiskWrites < s.ParityWrites {
		return fmt.Errorf("raid: disk writes %d below parity writes %d", s.DiskWrites, s.ParityWrites)
	}
	if s.DiskReads < s.ParityReads {
		return fmt.Errorf("raid: disk reads %d below parity reads %d", s.DiskReads, s.ParityReads)
	}
	if err := a.chassis.CheckMonotone(); err != nil {
		return err
	}
	now := a.engine.Now()
	for i, d := range a.disks {
		if mc, ok := d.(memberChecker); ok {
			if err := mc.CheckInvariants(now); err != nil {
				return fmt.Errorf("raid: member %d: %w", i, err)
			}
		}
		if err := d.Timeline().CheckMonotone(); err != nil {
			return fmt.Errorf("raid: member %d: %w", i, err)
		}
	}
	return nil
}

// segment is one strip-aligned fragment of an array request mapped to a
// member disk.
type segment struct {
	disk       int
	diskOffset int64
	size       int64
	stripe     int64 // RAID5 stripe index (RAID0: row index)
	parityDisk int   // RAID5 only
}

// mapRange splits [off, off+size) into per-disk segments, appended to
// segs in ascending strip order.
func (a *Array) mapRange(segs []segment, off, size int64) []segment {
	s := a.params.StripBytes
	n := int64(len(a.disks))
	for size > 0 {
		strip := off / s
		within := off % s
		take := s - within
		if take > size {
			take = size
		}
		var seg segment
		switch a.params.Level {
		case RAID0:
			seg = segment{
				disk:       int(strip % n),
				diskOffset: (strip/n)*s + within,
				size:       take,
				stripe:     strip / n,
				parityDisk: -1,
			}
		case RAID5:
			dataPer := n - 1
			stripe := strip / dataPer
			k := strip % dataPer
			parity := int(stripe % n)
			disk := (parity + 1 + int(k)) % int(n)
			seg = segment{
				disk:       disk,
				diskOffset: stripe*s + within,
				size:       take,
				stripe:     stripe,
				parityDisk: parity,
			}
		}
		segs = append(segs, seg)
		off += take
		size -= take
	}
	return segs
}

// pendingCmd carries one array request across the controller
// command-overhead delay: the closure-free kernel callback for the
// array's hottest scheduling site.  Records come from the array's free
// list and go back to it as soon as the event fires.
type pendingCmd struct {
	a    *Array
	req  storage.Request
	done func(simtime.Time)
}

// OnEvent implements simtime.Handler: the command overhead has elapsed,
// plan and issue the member-disk operations.
func (p *pendingCmd) OnEvent(*simtime.Engine, simtime.EventArg) {
	a, req, done := p.a, p.req, p.done
	p.done = nil
	a.freeCmds = append(a.freeCmds, p)
	switch req.Op {
	case storage.Read:
		a.stats.Reads++
		a.submitRead(req, done)
	case storage.Write:
		a.stats.Writes++
		a.submitWrite(req, done)
	}
}

// fanin joins the completions of a set of concurrent operations: done
// receives the latest completion time once all outstanding operations
// have finished.  fn is finish bound once, when the record is created.
// A record returns to the array's free list before done runs, so done
// may start new commands that reuse it.
type fanin struct {
	a           *Array
	outstanding int
	latest      simtime.Time
	done        func(simtime.Time)
	fn          func(simtime.Time)
}

func (f *fanin) finish(t simtime.Time) {
	if t > f.latest {
		f.latest = t
	}
	f.outstanding--
	if f.outstanding == 0 {
		done, latest := f.done, f.latest
		f.done = nil
		f.a.freeFanins = append(f.a.freeFanins, f)
		done(latest)
	}
}

// newFanin takes a fan-in record off the free list, armed for n
// completions.
func (a *Array) newFanin(n int, done func(simtime.Time)) *fanin {
	f := take(&a.freeFanins)
	if f == nil {
		f = &fanin{a: a}
		f.fn = f.finish
	}
	f.outstanding, f.latest, f.done = n, 0, done
	return f
}

// take pops a record off a free list, or returns nil when it is empty.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	r := (*free)[n-1]
	*free = (*free)[:n-1]
	return r
}

// doneNow defers a stored completion callback by one kernel event, so
// zero-disk-op completions stay asynchronous without a closure: the
// func value rides in EventArg.Ptr (pointer-shaped, no boxing).
type doneNow struct{}

func (doneNow) OnEvent(e *simtime.Engine, arg simtime.EventArg) {
	arg.Ptr.(func(simtime.Time))(e.Now())
}

// Submit implements storage.Device.
func (a *Array) Submit(req storage.Request, done func(simtime.Time)) {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("raid: invalid request: %v", err))
	}
	req.Offset = foldOffset(req.Offset, req.Size, a.Capacity())
	// Controller command overhead before member-disk issue.
	p := take(&a.freeCmds)
	if p == nil {
		p = &pendingCmd{a: a}
	}
	p.req, p.done = req, done
	a.engine.AfterEvent(a.params.CmdOverhead, p, simtime.EventArg{})
}

// PlannedOp is one member-disk operation planned by the controller.
// The serial write path issues planned ops directly; the sharded replay
// executor obtains them from PlanRequest and schedules them on per-shard
// engines itself.
type PlannedOp struct {
	// Disk is the member index the operation targets.
	Disk int
	// Req is the member-disk request (offsets already in disk space).
	Req storage.Request
}

// PlannedGroup is one dependency unit of an array request: all Reads
// complete first (phase 1), then all Writes issue concurrently (phase
// 2).  A group with no Reads issues its Writes immediately; a group
// with neither completes at plan time.  For reads the plan is a single
// group holding only Reads; a RAID-5 write yields one group per touched
// stripe (full-stripe groups carry only Writes, read-modify-write
// groups carry both phases).  The group — not the individual op — is
// the only place disks couple to each other, which is what makes the
// sharded executor's conservative windows sound.
type PlannedGroup struct {
	Reads  []PlannedOp
	Writes []PlannedOp
}

// PlanRequest maps one array-level request onto member-disk operations
// without issuing them, mutating the controller counters exactly as the
// serial execution path would (request, disk-op, parity and stripe
// classification counts all land at plan time; totals after a run match
// the serial end state).  Both paths share the same planning helpers, so
// the returned operations are identical — in content and in order — to
// what Submit would issue.  Like Submit, it panics on a malformed
// request and folds out-of-range offsets into the array's data space.
// The plan lives in fresh slices the caller owns; PlanRequest touches
// none of the serial path's scratch, so it is safe to call from
// anywhere, a completion callback included.
func (a *Array) PlanRequest(req storage.Request) []PlannedGroup {
	if err := req.Validate(0); err != nil {
		panic(fmt.Sprintf("raid: invalid request: %v", err))
	}
	req.Offset = foldOffset(req.Offset, req.Size, a.Capacity())
	var groups []PlannedGroup
	switch req.Op {
	case storage.Read:
		a.stats.Reads++
		groups = []PlannedGroup{{Reads: a.planRead(nil, a.mapRange(nil, req.Offset, req.Size))}}
	case storage.Write:
		a.stats.Writes++
		segs := a.mapRange(nil, req.Offset, req.Size)
		if a.params.Level == RAID0 {
			groups = []PlannedGroup{{Writes: a.planWriteRAID0(nil, segs)}}
		} else {
			plans := a.planStripes(nil, segs)
			groups = make([]PlannedGroup, len(plans))
			for i := range plans {
				a.planStripeWrite(&plans[i], &groups[i])
			}
		}
	}
	// The serial path counts member ops at issue; counting the full plan
	// here yields the same totals (every planned op is issued once).
	for gi := range groups {
		a.stats.DiskReads += int64(len(groups[gi].Reads))
		a.stats.DiskWrites += int64(len(groups[gi].Writes))
	}
	return groups
}

// ObserveDiskOp forwards one member-disk operation to the array's
// telemetry probe, if attached.  The sharded executor calls it at window
// barriers, where the serial path would have emitted the span from its
// completion callback.
func (a *Array) ObserveDiskOp(disk int, write bool, start, end simtime.Time, bytes int64) {
	a.tel.OnDiskOp(disk, write, start, end, bytes)
}

// issueAll submits the planned ops and calls done with the slowest
// completion time.  ops is not read after the last op is submitted.
func (a *Array) issueAll(ops []PlannedOp, done func(simtime.Time)) {
	if len(ops) == 0 {
		a.engine.ScheduleEvent(a.engine.Now(), doneNow{}, simtime.EventArg{Ptr: done})
		return
	}
	finish := a.newFanin(len(ops), done).fn
	start := a.engine.Now()
	for _, op := range ops {
		switch op.Req.Op {
		case storage.Read:
			a.stats.DiskReads++
		case storage.Write:
			a.stats.DiskWrites++
		}
		if a.tel == nil {
			a.disks[op.Disk].Submit(op.Req, finish)
			continue
		}
		// The span closure captures the op's identity; it exists only on
		// the instrumented path so disabled telemetry allocates nothing.
		disk, write, size := op.Disk, op.Req.Op == storage.Write, op.Req.Size
		a.disks[op.Disk].Submit(op.Req, func(t simtime.Time) {
			a.tel.OnDiskOp(disk, write, start, t, size)
			finish(t)
		})
	}
}

// submitRead fans the request out and completes when the slowest member
// finishes.
func (a *Array) submitRead(req storage.Request, done func(simtime.Time)) {
	a.segScratch = a.mapRange(a.segScratch[:0], req.Offset, req.Size)
	a.opScratch = a.planRead(a.opScratch[:0], a.segScratch)
	a.issueAll(a.opScratch, done)
}

// planRead maps a read's segments onto member ops appended to ops.
// Segments on a failed member are reconstructed by reading the same
// byte range from every survivor of the stripe and XOR-ing in
// controller memory.
func (a *Array) planRead(ops []PlannedOp, segs []segment) []PlannedOp {
	for _, seg := range segs {
		if seg.disk == a.failed {
			a.stats.ReconstructReads++
			a.tel.OnReconstructRead()
			for j := range a.disks {
				if j == a.failed {
					continue
				}
				ops = append(ops, PlannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
			}
			continue
		}
		ops = append(ops, PlannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
	}
	return ops
}

// stripePlan groups a write's segments that fall in one RAID-5 stripe.
type stripePlan struct {
	stripe     int64
	parityDisk int
	segs       []segment
	fullStripe bool
	// parityOffset/paritySize is the union byte range the parity strip
	// must be updated over.
	parityOffset, paritySize int64
}

// submitWrite executes the RAID-0 or RAID-5 write path.  The stripe
// plans alias the array's scratch slices; nothing re-plans before the
// next command event, so they stay intact while the loop issues, even
// when members complete synchronously.
func (a *Array) submitWrite(req storage.Request, done func(simtime.Time)) {
	a.segScratch = a.mapRange(a.segScratch[:0], req.Offset, req.Size)
	if a.params.Level == RAID0 {
		a.opScratch = a.planWriteRAID0(a.opScratch[:0], a.segScratch)
		a.issueAll(a.opScratch, done)
		return
	}

	a.planScratch = a.planStripes(a.planScratch[:0], a.segScratch)
	plans := a.planScratch
	finish := a.newFanin(len(plans), done).fn
	for i := range plans {
		w := a.newStripeWrite()
		a.planStripeWrite(&plans[i], &w.g)
		w.execute(finish)
	}
}

// planWriteRAID0 maps write segments straight onto member strips,
// appending the writes to ops.
func (a *Array) planWriteRAID0(ops []PlannedOp, segs []segment) []PlannedOp {
	for _, seg := range segs {
		ops = append(ops, PlannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
	}
	return ops
}

// stripeWrite carries one planned RAID-5 stripe group through its two
// phases on the array's own engine.  It owns the group's Reads/Writes
// slices, reused by every stripe the record serves; readsDone is
// onReads bound once, when the record is created.  The record returns
// to the array's free list once its write phase has been issued.
type stripeWrite struct {
	a         *Array
	g         PlannedGroup
	done      func(simtime.Time)
	readsDone func(simtime.Time)
}

// newStripeWrite takes a stripe-write record off the free list with its
// plan slices emptied.
func (a *Array) newStripeWrite() *stripeWrite {
	w := take(&a.freeStripes)
	if w == nil {
		w = &stripeWrite{a: a}
		w.readsDone = w.onReads
	}
	w.g.Reads, w.g.Writes = w.g.Reads[:0], w.g.Writes[:0]
	return w
}

// execute issues the read phase first (when present), then the write
// phase on its completion.  done receives the latest completion time of
// the final phase, matching the classic RMW chain.
func (w *stripeWrite) execute(done func(simtime.Time)) {
	if len(w.g.Reads) == 0 {
		w.writePhase(done)
		return
	}
	w.done = done
	w.a.issueAll(w.g.Reads, w.readsDone)
}

func (w *stripeWrite) onReads(simtime.Time) {
	done := w.done
	w.done = nil
	w.writePhase(done)
}

// writePhase issues the writes and releases the record.
func (w *stripeWrite) writePhase(done func(simtime.Time)) {
	a := w.a
	a.issueAll(w.g.Writes, done)
	a.freeStripes = append(a.freeStripes, w)
}

// planStripes appends one plan per stripe the segments touch and
// classifies each as a full-stripe write or a read-modify-write.
// mapRange emits segments in ascending strip order, so each stripe's
// segments form one consecutive run and p.segs is a sub-slice of segs.
func (a *Array) planStripes(plans []stripePlan, segs []segment) []stripePlan {
	s := a.params.StripBytes
	dataWidth := int64(len(a.disks) - 1)
	for i := 0; i < len(segs); {
		p := stripePlan{stripe: segs[i].stripe, parityDisk: segs[i].parityDisk}
		// The parity union range and the full-stripe test.
		lo, hi := segs[i].diskOffset, segs[i].diskOffset+segs[i].size
		var covered int64
		full := true
		j := i
		for ; j < len(segs) && segs[j].stripe == p.stripe; j++ {
			seg := segs[j]
			lo, hi = min(lo, seg.diskOffset), max(hi, seg.diskOffset+seg.size)
			covered += seg.size
			if seg.size != s || seg.diskOffset != p.stripe*s {
				full = false
			}
		}
		p.segs = segs[i:j:j]
		p.parityOffset, p.paritySize = lo, hi-lo
		p.fullStripe = full && covered == dataWidth*s
		plans = append(plans, p)
		i = j
	}
	return plans
}

// planStripeWrite plans either a full-stripe write (write all data
// strips plus parity) or read-modify-write (read old data and old
// parity, then write new data and new parity).  In degraded mode the
// plan adapts: a failed parity disk drops all parity traffic; a failed
// data disk forces reconstruct-write — read the union range from every
// surviving data disk to recompute parity, skip the lost data write.
// The ops are appended to g's Reads and Writes.
func (a *Array) planStripeWrite(p *stripePlan, g *PlannedGroup) {
	degraded := a.failed >= 0 && a.stripeTouchesFailed(p)
	if degraded {
		a.stats.DegradedStripes++
	}
	parityAlive := p.parityDisk != a.failed

	for _, seg := range p.segs {
		if seg.disk == a.failed {
			continue // the lost member absorbs no writes; parity covers it
		}
		g.Writes = append(g.Writes, PlannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Write, Offset: seg.diskOffset, Size: seg.size}})
	}
	if parityAlive {
		a.stats.ParityWrites++
		a.tel.OnParity(false)
		g.Writes = append(g.Writes, PlannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Write, Offset: p.parityOffset, Size: p.paritySize}})
	}

	if p.fullStripe {
		a.stats.FullStripeWrites++
		a.tel.OnStripeWrite(true, degraded)
		// Parity is computed from the new data in controller memory —
		// no pre-reads needed.
		return
	}

	a.stats.RMWStripes++
	a.tel.OnStripeWrite(false, degraded)
	switch {
	case !degraded:
		// Classic RMW: old data under each segment plus old parity.
		for _, seg := range p.segs {
			g.Reads = append(g.Reads, PlannedOp{Disk: seg.disk, Req: storage.Request{Op: storage.Read, Offset: seg.diskOffset, Size: seg.size}})
		}
		a.stats.ParityReads++
		a.tel.OnParity(true)
		g.Reads = append(g.Reads, PlannedOp{Disk: p.parityDisk, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
	case !parityAlive:
		// Parity lost: data writes need no pre-reads at all.
	default:
		// A data member lost: reconstruct-write.  Read the union range
		// from every surviving data disk so parity can be recomputed
		// from scratch.
		for j := range a.disks {
			if j == a.failed || j == p.parityDisk {
				continue
			}
			g.Reads = append(g.Reads, PlannedOp{Disk: j, Req: storage.Request{Op: storage.Read, Offset: p.parityOffset, Size: p.paritySize}})
		}
	}
}

// stripeTouchesFailed reports whether the plan involves the failed
// member (as a data target or as the parity disk).
func (a *Array) stripeTouchesFailed(p *stripePlan) bool {
	if p.parityDisk == a.failed {
		return true
	}
	for _, seg := range p.segs {
		if seg.disk == a.failed {
			return true
		}
	}
	return false
}

// foldOffset wraps an out-of-range request into the array's data space,
// mirroring disksim's behaviour so traces from larger stores replay.
func foldOffset(offset, size, capacity int64) int64 {
	if size >= capacity {
		return 0
	}
	if offset+size <= capacity {
		return offset
	}
	off := offset % capacity
	if off+size > capacity {
		off = capacity - size
	}
	return off
}

var _ storage.Device = (*Array)(nil)
