package blktrace

// Trace codecs.  Each format has exactly one decoder and one encoder,
// and both stream: a scanner hands its callback one bunch at a time and
// a stream writer takes one bunch at a time, so format conversion
// (cmd/traceconv) never materializes the record set.  The one-shot API
// in blktrace.go (Read, ReadFile, ReadText, Write, WriteFile,
// WriteText) collects from the scanners and drives the encoders.  Every
// scanner and MappedWriter apply scanValidator, the per-bunch rules
// Trace.Validate loops over.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/simtime"
	"repro/internal/storage"
)

// ScanFunc receives each bunch in order.  The Packages slice is reused
// between calls and must not be retained.
type ScanFunc func(b Bunch) error

// scanValidator checks bunches one at a time, in order: non-negative,
// non-decreasing times, non-empty bunches and well-formed requests.
type scanValidator struct {
	prev simtime.Duration
	i    int
}

func (v *scanValidator) check(b Bunch) error {
	if b.Time < 0 {
		return fmt.Errorf("blktrace: bunch %d has negative time %v", v.i, b.Time)
	}
	if v.i > 0 && b.Time < v.prev {
		return fmt.Errorf("blktrace: bunch %d time %v precedes bunch %d time %v", v.i, b.Time, v.i-1, v.prev)
	}
	if len(b.Packages) == 0 {
		return fmt.Errorf("blktrace: bunch %d is empty", v.i)
	}
	for j, p := range b.Packages {
		if err := p.Request().Validate(0); err != nil {
			return fmt.Errorf("blktrace: bunch %d package %d: %w", v.i, j, err)
		}
	}
	v.prev = b.Time
	v.i++
	return nil
}

// appendPackage appends p's pkgRecordSize-byte record (i64 sector,
// i64 size, u8 op), the package encoding of both binary formats.
func appendPackage(dst []byte, p IOPackage) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Sector))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(p.Size))
	return append(dst, byte(p.Op))
}

// getPackage decodes one package record.
func getPackage(rec []byte) IOPackage {
	return IOPackage{
		Sector: int64(binary.LittleEndian.Uint64(rec[0:8])),
		Size:   int64(binary.LittleEndian.Uint64(rec[8:16])),
		Op:     storage.Op(rec[16]),
	}
}

// appendBunchHeader appends a bunchRecordSize-byte bunch record
// (i64 time_ns, u32 npackages), shared by both binary formats.
func appendBunchHeader(dst []byte, t simtime.Duration, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(t))
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// writeHeader emits a binary file header — magic, u16 version, u16
// device length, the device label — followed by the count field: the
// u32 bunch count in v1 (real in Write, zero in BinaryStreamWriter,
// which patches it on Close) and the two v2 counts, always patched.
// bufio errors are sticky, so callers see any write error at Flush.
func writeHeader(bw *bufio.Writer, magic [8]byte, version uint16, device string, counts []byte) error {
	if len(device) > math.MaxUint16 {
		return fmt.Errorf("blktrace: device name too long (%d bytes)", len(device))
	}
	bw.Write(magic[:])
	buf := binary.LittleEndian.AppendUint16(bw.AvailableBuffer(), version)
	bw.Write(binary.LittleEndian.AppendUint16(buf, uint16(len(device))))
	bw.WriteString(device)
	_, err := bw.Write(counts)
	return err
}

// writeBunch emits one v1 bunch: its header, then its package records.
func writeBunch(bw *bufio.Writer, b Bunch) error {
	if uint64(len(b.Packages)) > math.MaxUint32 {
		return fmt.Errorf("blktrace: bunch at %v too large (%d packages)", b.Time, len(b.Packages))
	}
	_, err := bw.Write(appendBunchHeader(bw.AvailableBuffer(), b.Time, len(b.Packages)))
	for _, p := range b.Packages {
		_, err = bw.Write(appendPackage(bw.AvailableBuffer(), p))
	}
	return err
}

// ScanBinary decodes a binary .replay (v1) stream incrementally: device
// is called once with the label, then fn once per bunch in order.
func ScanBinary(r io.Reader, device func(string) error, fn ScanFunc) error {
	return scanBinary(bufio.NewReaderSize(r, fileBufSize), 0,
		func(dev string, _ int) error { return device(dev) }, fn)
}

// scanBinary is the v1 decoder.  header receives the device label and
// the declared bunch count before the first bunch.  pkgHint, when
// positive, is the file length over pkgRecordSize: an upper bound on
// both counts, so a corrupt or lying header fails at once with
// "exceeds file size" rather than reading on.
func scanBinary(br *bufio.Reader, pkgHint int, header func(device string, nb int) error, fn ScanFunc) error {
	var rec [pkgRecordSize]byte // reused for the fixed header, bunch headers and packages
	if _, err := io.ReadFull(br, rec[:12]); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if [8]byte(rec[0:8]) != binaryMagic {
		return fmt.Errorf("%w: bad magic %q", ErrBadFormat, rec[0:8])
	}
	if v := binary.LittleEndian.Uint16(rec[8:10]); v != binaryVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	dev := make([]byte, binary.LittleEndian.Uint16(rec[10:12]))
	if _, err := io.ReadFull(br, dev); err != nil {
		return fmt.Errorf("%w: device name: %v", ErrBadFormat, err)
	}
	if _, err := io.ReadFull(br, rec[:4]); err != nil {
		return fmt.Errorf("%w: bunch count: %v", ErrBadFormat, err)
	}
	nb := int(binary.LittleEndian.Uint32(rec[:4]))
	if pkgHint > 0 && nb > pkgHint {
		return fmt.Errorf("%w: bunch count %d exceeds file size", ErrBadFormat, nb)
	}
	if err := header(string(dev), nb); err != nil {
		return err
	}
	var v scanValidator
	var pkgs []IOPackage
	total := 0
	for i := 0; i < nb; i++ {
		if _, err := io.ReadFull(br, rec[:bunchRecordSize]); err != nil {
			return fmt.Errorf("%w: bunch %d header: %v", ErrBadFormat, i, err)
		}
		t := simtime.Duration(binary.LittleEndian.Uint64(rec[0:8]))
		np := int(binary.LittleEndian.Uint32(rec[8:12]))
		if total += np; pkgHint > 0 && total > pkgHint {
			return fmt.Errorf("%w: bunch %d: package count exceeds file size", ErrBadFormat, i)
		}
		pkgs = pkgs[:0]
		for j := 0; j < np; j++ {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return fmt.Errorf("%w: bunch %d package %d: %v", ErrBadFormat, i, j, err)
			}
			pkgs = append(pkgs, getPackage(rec[:]))
		}
		b := Bunch{Time: t, Packages: pkgs}
		if err := v.check(b); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// ScanText decodes the line-oriented text format (see WriteText)
// incrementally.  The first device line names the trace; a device line
// after it, or after the first bunch, is ignored.
func ScanText(r io.Reader, device func(string) error, fn ScanFunc) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var (
		v         scanValidator
		cur       Bunch
		pending   int
		haveBunch bool
		sentDev   bool
		lineNo    int
	)
	sendDev := func(name string) error {
		if sentDev {
			return nil
		}
		sentDev = true
		return device(name)
	}
	flush := func() error {
		if !haveBunch {
			return nil
		}
		haveBunch = false
		if err := v.check(cur); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		return fn(cur)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "device":
			name := ""
			if len(fields) >= 2 {
				name = fields[1]
			}
			if err := sendDev(name); err != nil {
				return err
			}
		case fields[0] == "B":
			if pending != 0 {
				return fmt.Errorf("%w: line %d: new bunch with %d packages pending", ErrBadFormat, lineNo, pending)
			}
			if err := flush(); err != nil {
				return err
			}
			if len(fields) != 3 {
				return fmt.Errorf("%w: line %d: bad bunch header", ErrBadFormat, lineNo)
			}
			ts, err1 := strconv.ParseInt(fields[1], 10, 64)
			np, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || np <= 0 {
				return fmt.Errorf("%w: line %d: bad bunch header %q", ErrBadFormat, lineNo, line)
			}
			if err := sendDev(""); err != nil {
				return err
			}
			cur = Bunch{Time: simtime.Duration(ts), Packages: cur.Packages[:0]}
			pending = np
			haveBunch = true
		default:
			if pending == 0 {
				return fmt.Errorf("%w: line %d: package outside bunch", ErrBadFormat, lineNo)
			}
			if len(fields) != 3 {
				return fmt.Errorf("%w: line %d: bad package line %q", ErrBadFormat, lineNo, line)
			}
			sector, err1 := strconv.ParseInt(fields[0], 10, 64)
			size, err2 := strconv.ParseInt(fields[1], 10, 64)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%w: line %d: bad package numbers", ErrBadFormat, lineNo)
			}
			var op storage.Op
			switch fields[2] {
			case "R", "r":
				op = storage.Read
			case "W", "w":
				op = storage.Write
			default:
				return fmt.Errorf("%w: line %d: bad op %q", ErrBadFormat, lineNo, fields[2])
			}
			cur.Packages = append(cur.Packages, IOPackage{Sector: sector, Size: size, Op: op})
			pending--
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: line %d: %v", ErrBadFormat, lineNo+1, err)
	}
	if pending != 0 {
		return fmt.Errorf("%w: truncated final bunch (%d packages missing)", ErrBadFormat, pending)
	}
	if err := flush(); err != nil {
		return err
	}
	return sendDev("")
}

// ScanMapped walks an opened mapped trace through the same callbacks,
// reusing one package buffer across bunches.  Open validated the
// layout; ScanMapped applies the per-bunch checks to the packages.
func ScanMapped(m *MappedTrace, device func(string) error, fn ScanFunc) error {
	if err := device(m.Label()); err != nil {
		return err
	}
	var v scanValidator
	var pkgs []IOPackage
	for i := 0; i < m.NumBunches(); i++ {
		pkgs = m.AppendPackages(i, pkgs[:0])
		b := Bunch{Time: m.BunchTime(i), Packages: pkgs}
		if err := v.check(b); err != nil {
			return fmt.Errorf("%w: %v", ErrBadFormat, err)
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	return nil
}

// countPatcher is the target of the writers whose header counts are
// only known at the end: sequential writes plus the in-place count
// patch on Close.  *os.File satisfies it.
type countPatcher interface {
	io.Writer
	io.WriterAt
}

// patchedStream is the shared state of the count-patching writers
// (BinaryStreamWriter, MappedWriter).
type patchedStream struct {
	f        countPatcher
	bw       *bufio.Writer
	countOff int64 // file offset of the header count field
	closed   bool
}

func newPatchedStream(f countPatcher, magic [8]byte, version uint16, device string, countLen int) (patchedStream, error) {
	s := patchedStream{f: f, bw: bufio.NewWriterSize(f, fileBufSize), countOff: int64(mappedHeadLen + len(device))}
	return s, writeHeader(s.bw, magic, version, device, make([]byte, countLen))
}

// finish flushes the stream and patches counts into the header.  It
// does not close the underlying file.
func (s *patchedStream) finish(nb int64, counts []byte) error {
	s.closed = true
	if nb > math.MaxUint32 {
		return fmt.Errorf("blktrace: too many bunches (%d)", nb)
	}
	if err := s.bw.Flush(); err != nil {
		return err
	}
	_, err := s.f.WriteAt(counts, s.countOff)
	return err
}

// BinaryStreamWriter emits the binary .replay (v1) format one bunch at
// a time.  v1 carries the bunch count up front, so the writer leaves a
// placeholder and patches it on Close — the stream itself never buffers
// more than one write block.
type BinaryStreamWriter struct {
	patchedStream
	nb int64
}

// NewBinaryStreamWriter starts a v1 stream on f.  The caller retains
// ownership of f and closes it after Close.
func NewBinaryStreamWriter(f countPatcher, device string) (*BinaryStreamWriter, error) {
	s, err := newPatchedStream(f, binaryMagic, binaryVersion, device, 4)
	if err != nil {
		return nil, err
	}
	return &BinaryStreamWriter{patchedStream: s}, nil
}

// WriteBunch appends one bunch to the stream.
func (w *BinaryStreamWriter) WriteBunch(b Bunch) error {
	if w.closed {
		return fmt.Errorf("blktrace: write on closed BinaryStreamWriter")
	}
	if err := writeBunch(w.bw, b); err != nil {
		return err
	}
	w.nb++
	return nil
}

// Close flushes and patches the bunch count.  It does not close the
// underlying file.
func (w *BinaryStreamWriter) Close() error {
	if w.closed {
		return nil
	}
	return w.finish(w.nb, binary.LittleEndian.AppendUint32(nil, uint32(w.nb)))
}

// TextStreamWriter emits the text format one bunch at a time.
type TextStreamWriter struct {
	bw *bufio.Writer
}

// NewTextStreamWriter starts a text stream on w with the standard
// header lines.
func NewTextStreamWriter(w io.Writer, device string) (*TextStreamWriter, error) {
	bw := bufio.NewWriterSize(w, fileBufSize)
	fmt.Fprintln(bw, "# blktrace-text v1") // a failed write is sticky: the next one reports it
	if _, err := fmt.Fprintf(bw, "device %s\n", device); err != nil {
		return nil, err
	}
	return &TextStreamWriter{bw: bw}, nil
}

// WriteBunch appends one bunch to the stream.
func (w *TextStreamWriter) WriteBunch(b Bunch) error {
	_, err := fmt.Fprintf(w.bw, "B %d %d\n", int64(b.Time), len(b.Packages))
	for _, p := range b.Packages {
		op := "R"
		if p.Op == storage.Write {
			op = "W"
		}
		_, err = fmt.Fprintf(w.bw, "%d %d %s\n", p.Sector, p.Size, op)
	}
	return err
}

// Close flushes the stream; it does not close the underlying writer.
func (w *TextStreamWriter) Close() error { return w.bw.Flush() }
