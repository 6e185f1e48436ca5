// Package blktrace models block-level I/O trace files in the structure
// TRACER replays (paper Fig. 4).
//
// A trace is a sequence of bunches.  Each bunch carries an arrival
// timestamp and a set of IO_packages that were issued concurrently;
// each IO_package names a starting sector, a size in bytes and a
// read/write direction.  The paper's 2-minute RAID-5 trace holds about
// 50,000 bunches and 400,000 IO_packages in this shape.
//
// Three formats are provided: a compact binary format (the ".replay"
// files TRACER loads), a line-oriented text format convenient for
// inspection and for hand-written fixtures, and a memory-mapped layout
// (".rmap", mmap.go) the sharded replayer reads zero-copy.  Each has
// one streaming decoder and one encoder (stream.go).
package blktrace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// IOPackage is one block-level request inside a bunch (paper Fig. 4):
// starting sector, request size in bytes, and the operation type.
type IOPackage struct {
	// Sector is the starting 512-byte sector on the device.
	Sector int64
	// Size is the request length in bytes.
	Size int64
	// Op is the transfer direction.
	Op storage.Op
}

// Request converts the package to a storage request.
func (p IOPackage) Request() storage.Request {
	return storage.Request{Op: p.Op, Offset: p.Sector * storage.SectorSize, Size: p.Size}
}

// Bunch is a set of concurrent IO_packages sharing one arrival time,
// expressed as an offset from the start of the trace.
type Bunch struct {
	// Time is the arrival time of every package in the bunch.
	Time simtime.Duration
	// Packages are the concurrent requests.  Replay issues them in
	// parallel (paper Section IV-A).
	Packages []IOPackage
}

// Trace is an ordered sequence of bunches plus the metadata TRACER's
// repository encodes in file names.
type Trace struct {
	// Device labels the storage system the trace was collected on.
	Device string
	// Bunches are ordered by non-decreasing Time.
	Bunches []Bunch
}

// NumBunches reports the number of bunches.
func (t *Trace) NumBunches() int { return len(t.Bunches) }

// Label reports the device label; together with BunchTime, BunchSize
// and Package it forms the read-only view interface (replay.BunchSource)
// shared with the memory-mapped MappedTrace.
func (t *Trace) Label() string { return t.Device }

// BunchTime reports bunch i's arrival offset.
func (t *Trace) BunchTime(i int) simtime.Duration { return t.Bunches[i].Time }

// BunchSize reports the number of packages in bunch i.
func (t *Trace) BunchSize(i int) int { return len(t.Bunches[i].Packages) }

// Package returns package pkg of bunch i.
func (t *Trace) Package(i, pkg int) IOPackage { return t.Bunches[i].Packages[pkg] }

// NumIOs reports the total number of IO_packages.
func (t *Trace) NumIOs() int {
	n := 0
	for i := range t.Bunches {
		n += len(t.Bunches[i].Packages)
	}
	return n
}

// Duration reports the arrival time of the last bunch (the replay
// horizon; service of the final requests extends past it).
func (t *Trace) Duration() simtime.Duration {
	if len(t.Bunches) == 0 {
		return 0
	}
	return t.Bunches[len(t.Bunches)-1].Time
}

// TotalBytes sums request sizes across the trace.
func (t *Trace) TotalBytes() int64 {
	var b int64
	for i := range t.Bunches {
		for _, p := range t.Bunches[i].Packages {
			b += p.Size
		}
	}
	return b
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Device: t.Device, Bunches: make([]Bunch, len(t.Bunches))}
	for i, b := range t.Bunches {
		out.Bunches[i] = Bunch{Time: b.Time, Packages: append([]IOPackage(nil), b.Packages...)}
	}
	return out
}

// Validate checks structural invariants: non-decreasing bunch times,
// non-empty bunches, and well-formed packages.
func (t *Trace) Validate() error {
	var v scanValidator
	for _, b := range t.Bunches {
		if err := v.check(b); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarises the workload characteristics the paper's repository
// encodes in trace names and reports in Table III.
type Stats struct {
	// Bunches and IOs are structural counts.
	Bunches, IOs int
	// Duration is the arrival span of the trace.
	Duration simtime.Duration
	// TotalBytes is the sum of request sizes.
	TotalBytes int64
	// AvgRequestBytes is TotalBytes / IOs.
	AvgRequestBytes float64
	// ReadRatio is the fraction of IOs that are reads (by count).
	ReadRatio float64
	// RandomRatio is the fraction of IOs that do NOT continue the
	// previous request's sector range (first IO counts as random).
	RandomRatio float64
	// MeanIOPS and MeanMBPS are offered intensity over Duration.
	MeanIOPS, MeanMBPS float64
	// MaxBunchSize is the largest concurrency level in one bunch.
	MaxBunchSize int
	// Seeks counts IOs that did not continue the previous request's
	// byte range (the numerator of RandomRatio; the first IO counts).
	Seeks int
	// MeanSeekSectors and MaxSeekSectors summarise the absolute
	// distance (in sectors) jumped at each seek after the first IO.
	MeanSeekSectors float64
	MaxSeekSectors  int64
	// SeqRuns counts maximal sequential runs; MeanRunIOs and MaxRunIOs
	// summarise their lengths in IOs.
	SeqRuns    int
	MeanRunIOs float64
	MaxRunIOs  int
}

// SeekCounter accumulates the spatial-locality accounting shared by
// ComputeStats and the workload profiler: which IOs continue the
// previous request's byte range, how far each seek jumps, and how long
// sequential runs last.  The zero value is ready to use; feed every
// IOPackage in trace order through Observe and call Finish once at the
// end to flush the final run.
type SeekCounter struct {
	// OnSeek, when non-nil, receives the absolute seek distance in
	// sectors for every seek after the first IO (the first IO has no
	// predecessor, so no distance).
	OnSeek func(absSectors int64)
	// OnRunEnd, when non-nil, receives the length in IOs of every
	// completed maximal sequential run.
	OnRunEnd func(ios int)

	// IOs, Seeks and SeqIOs partition the observed stream: every IO is
	// either a seek (including the first) or a sequential continuation.
	IOs, Seeks, SeqIOs int
	// SumSeekSectors and MaxSeekSectors aggregate absolute seek
	// distances (float sum: distances on large devices can overflow an
	// int64 accumulator over long traces).
	SumSeekSectors float64
	MaxSeekSectors int64
	// Runs and MaxRunIOs aggregate completed sequential runs; they are
	// only final after Finish.
	Runs      int
	MaxRunIOs int

	started bool
	prevEnd int64 // byte address one past the previous request
	runIOs  int
}

// Observe feeds one IO in trace order.
func (c *SeekCounter) Observe(p IOPackage) {
	off := p.Sector * storage.SectorSize
	if c.started && off == c.prevEnd {
		c.SeqIOs++
		c.runIOs++
	} else {
		if c.started {
			dist := (off - c.prevEnd) / storage.SectorSize
			if dist < 0 {
				dist = -dist
			}
			c.SumSeekSectors += float64(dist)
			if dist > c.MaxSeekSectors {
				c.MaxSeekSectors = dist
			}
			if c.OnSeek != nil {
				c.OnSeek(dist)
			}
			c.endRun()
		}
		c.Seeks++
		c.runIOs = 1
		c.started = true
	}
	c.IOs++
	c.prevEnd = off + p.Size
}

// Finish flushes the trailing sequential run.  Observe must not be
// called afterwards.
func (c *SeekCounter) Finish() {
	if c.started {
		c.endRun()
		c.started = false
	}
}

func (c *SeekCounter) endRun() {
	c.Runs++
	if c.runIOs > c.MaxRunIOs {
		c.MaxRunIOs = c.runIOs
	}
	if c.OnRunEnd != nil {
		c.OnRunEnd(c.runIOs)
	}
	c.runIOs = 0
}

// ComputeStats derives workload statistics from the trace.
func ComputeStats(t *Trace) Stats {
	s := Stats{Bunches: len(t.Bunches), Duration: t.Duration()}
	var reads int
	var sc SeekCounter
	for i := range t.Bunches {
		b := &t.Bunches[i]
		if len(b.Packages) > s.MaxBunchSize {
			s.MaxBunchSize = len(b.Packages)
		}
		for _, p := range b.Packages {
			s.IOs++
			s.TotalBytes += p.Size
			if p.Op == storage.Read {
				reads++
			}
			sc.Observe(p)
		}
	}
	sc.Finish()
	s.Seeks = sc.Seeks
	s.MaxSeekSectors = sc.MaxSeekSectors
	s.SeqRuns = sc.Runs
	s.MaxRunIOs = sc.MaxRunIOs
	if seeks := sc.Seeks - 1; seeks > 0 {
		s.MeanSeekSectors = sc.SumSeekSectors / float64(seeks)
	}
	if sc.Runs > 0 {
		s.MeanRunIOs = float64(sc.IOs) / float64(sc.Runs)
	}
	if s.IOs > 0 {
		s.AvgRequestBytes = float64(s.TotalBytes) / float64(s.IOs)
		s.ReadRatio = float64(reads) / float64(s.IOs)
		s.RandomRatio = float64(sc.Seeks) / float64(s.IOs)
	}
	if secs := s.Duration.Seconds(); secs > 0 {
		s.MeanIOPS = float64(s.IOs) / secs
		s.MeanMBPS = float64(s.TotalBytes) / (1 << 20) / secs
	}
	return s
}

// Builder incrementally assembles a trace from timed I/O observations,
// coalescing packages that share an arrival time into one bunch.  The
// trace collector in internal/synth uses it; it is also convenient in
// tests.
type Builder struct {
	trace Trace
}

// NewBuilder returns a builder for a trace on the named device.
func NewBuilder(device string) *Builder {
	return &Builder{trace: Trace{Device: device}}
}

// Record appends one IO at the given arrival time.  Arrival times must
// be non-decreasing.
func (b *Builder) Record(at simtime.Duration, p IOPackage) error {
	n := len(b.trace.Bunches)
	if n > 0 && at < b.trace.Bunches[n-1].Time {
		return fmt.Errorf("blktrace: record at %v before last bunch %v", at, b.trace.Bunches[n-1].Time)
	}
	if n > 0 && at == b.trace.Bunches[n-1].Time {
		b.trace.Bunches[n-1].Packages = append(b.trace.Bunches[n-1].Packages, p)
		return nil
	}
	b.trace.Bunches = append(b.trace.Bunches, Bunch{Time: at, Packages: []IOPackage{p}})
	return nil
}

// Trace returns the assembled trace.  The builder must not be used
// afterwards.
func (b *Builder) Trace() *Trace { return &b.trace }

// Binary format
//
//	magic "TRCRPLAY" | u16 version | u16 devlen | devname |
//	u32 nbunches | for each bunch: i64 time_ns, u32 npackages,
//	for each package: i64 sector, i64 size, u8 op.

var binaryMagic = [8]byte{'T', 'R', 'C', 'R', 'P', 'L', 'A', 'Y'}

const (
	binaryVersion = 1
	// pkgRecordSize is the encoded size of one IOPackage record; file
	// length divided by it bounds the package count, which ReadFile uses
	// to pre-size the decode arena.
	pkgRecordSize = 17
	// fileBufSize is the bufio size for whole-file trace IO.  Trace
	// files are hundreds of kilobytes to tens of megabytes; 1 MiB keeps
	// syscall counts low without noticeable memory cost.
	fileBufSize = 1 << 20
	// arenaChunk is the fallback arena allocation granularity (in
	// packages) when no size hint is available.
	arenaChunk = 4096
)

// ErrBadFormat reports a malformed trace file.
var ErrBadFormat = errors.New("blktrace: malformed trace file")

// pkgArena carves per-bunch package slices out of large flat
// allocations, so decoding a 50k-bunch trace costs a handful of
// allocations instead of one per bunch.  Carved slices are capped
// (3-index) so a later append on a bunch cannot clobber its neighbour.
type pkgArena struct {
	buf []IOPackage
}

// take returns an empty slice with capacity n backed by the arena.
func (a *pkgArena) take(n int) []IOPackage {
	if n > len(a.buf) {
		chunk := arenaChunk
		if n > chunk {
			chunk = n
		}
		a.buf = make([]IOPackage, chunk)
	}
	s := a.buf[0:0:n]
	a.buf = a.buf[n:]
	return s
}

// Write encodes the trace in the binary .replay format.
func Write(w io.Writer, t *Trace) error {
	if uint64(len(t.Bunches)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: too many bunches (%d)", len(t.Bunches))
	}
	bw := bufio.NewWriter(w) // w itself when it is already a large enough bufio.Writer
	if err := writeHeader(bw, binaryMagic, binaryVersion, t.Device, binary.LittleEndian.AppendUint32(nil, uint32(len(t.Bunches)))); err != nil {
		return err
	}
	for i := range t.Bunches {
		if err := writeBunch(bw, t.Bunches[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile encodes the trace to a file, buffered for bulk writing.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(bufio.NewWriterSize(f, fileBufSize), t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// collector materializes scanned bunches into a Trace, copying each out
// of the scanner's reused buffer into a pkgArena.
type collector struct {
	t     Trace
	arena pkgArena
}

func (c *collector) device(dev string) error {
	c.t.Device = dev
	return nil
}

func (c *collector) add(b Bunch) error {
	c.t.Bunches = append(c.t.Bunches, Bunch{Time: b.Time, Packages: append(c.arena.take(len(b.Packages)), b.Packages...)})
	return nil
}

// Read decodes a binary .replay trace.
func Read(r io.Reader) (*Trace, error) {
	return readBinary(bufio.NewReader(r), 0)
}

// ReadFile decodes a binary .replay trace from a file.  The file length
// bounds the package count (each record is pkgRecordSize bytes), so the
// decode arena is sized in one allocation up front.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hint := 0
	if fi, err := f.Stat(); err == nil && fi.Size() > 0 {
		hint = int(fi.Size() / pkgRecordSize)
	}
	return readBinary(bufio.NewReaderSize(f, fileBufSize), hint)
}

// readBinary collects a v1 stream.  pkgHint, when positive, bounds the
// counts (see scanBinary) and sizes the arena in one allocation; the
// bunch list is sized from the declared count, which without a hint is
// trusted only up to arenaChunk so a lying header cannot force a giant
// allocation.
func readBinary(br *bufio.Reader, pkgHint int) (*Trace, error) {
	c := &collector{}
	if pkgHint > 0 {
		c.arena.buf = make([]IOPackage, pkgHint)
	}
	err := scanBinary(br, pkgHint, func(dev string, nb int) error {
		if pkgHint == 0 {
			nb = min(nb, arenaChunk)
		}
		if nb > 0 {
			c.t.Bunches = make([]Bunch, 0, nb)
		}
		return c.device(dev)
	}, c.add)
	if err != nil {
		return nil, err
	}
	return &c.t, nil
}

// WriteText encodes the trace in the line-oriented text format:
//
//	# blktrace-text v1
//	device <name>
//	B <time_ns> <npackages>
//	<sector> <size> R|W
func WriteText(w io.Writer, t *Trace) error {
	tw, err := NewTextStreamWriter(w, t.Device)
	if err != nil {
		return err
	}
	for i := range t.Bunches {
		if err := tw.WriteBunch(t.Bunches[i]); err != nil {
			return err
		}
	}
	return tw.Close()
}

// ReadText decodes the text format written by WriteText, collecting
// from ScanText: the first device line names the trace.
func ReadText(r io.Reader) (*Trace, error) {
	c := &collector{}
	if err := ScanText(r, c.device, c.add); err != nil {
		return nil, err
	}
	return &c.t, nil
}
