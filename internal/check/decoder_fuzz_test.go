package check

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/netproto"
	"repro/internal/optimize"
	"repro/internal/replay"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/srt"
	"repro/internal/workload"
)

// Native fuzz targets for every on-disk decoder.  Under plain `go test`
// each runs its seed corpus; to fuzz one, e.g.
//
//	go test -run '^$' -fuzz '^FuzzBlktraceReadText$' -fuzztime 10s ./internal/check
//
// A decoder may reject any input, but must never panic, and the
// blktrace and ledger decoders must label every rejection with their
// ErrBadFormat / ErrBadLedger sentinel.

// maxSeedBytes bounds a seed's size: the mutator spends most of a short
// fuzzing budget minimising inputs the size of the multi-minute cache
// and optimize fixtures, so those are left out.
const maxSeedBytes = 8 << 10

// addCorpusSeeds seeds f with every committed fixture and golden under
// testdata/golden, every corrupt fixture under testdata/corrupt, and
// the given format-specific encodings, skipping any over maxSeedBytes.
func addCorpusSeeds(f *testing.F, extra ...[]byte) {
	f.Helper()
	for _, root := range []string{"testdata/golden", "testdata/corrupt"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			blob, err := os.ReadFile(path)
			if err == nil && len(blob) <= maxSeedBytes {
				f.Add(blob)
			}
			return err
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	for _, blob := range extra {
		if len(blob) <= maxSeedBytes {
			f.Add(blob)
		}
	}
}

// fixtureTraces loads the committed replay fixtures.
func fixtureTraces(f *testing.F) []*blktrace.Trace {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata/golden", "*"+TraceSuffix))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no fixture traces: %v", err)
	}
	var out []*blktrace.Trace
	for _, p := range paths {
		tr, err := LoadFixtureTrace(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

func requireLabelled(t *testing.T, err, sentinel error) {
	t.Helper()
	if err != nil && !errors.Is(err, sentinel) {
		t.Fatalf("unlabelled decode error: %v", err)
	}
}

func FuzzBlktraceReadText(f *testing.F) {
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := blktrace.ReadText(bytes.NewReader(data))
		requireLabelled(t, err, blktrace.ErrBadFormat)
	})
}

func FuzzBlktraceRead(f *testing.F) {
	var seeds [][]byte
	for _, tr := range fixtureTraces(f) {
		var buf bytes.Buffer
		if err := blktrace.Write(&buf, tr); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	addCorpusSeeds(f, seeds...)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := blktrace.Read(bytes.NewReader(data))
		requireLabelled(t, err, blktrace.ErrBadFormat)
	})
}

func FuzzBlktraceReadMapped(f *testing.F) {
	dir := f.TempDir()
	var seeds [][]byte
	for i, tr := range fixtureTraces(f) {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.rmap", i))
		if err := blktrace.WriteMappedFile(path, tr); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	addCorpusSeeds(f, seeds...)
	// One scratch file per fuzzing process: a fresh t.TempDir per input
	// costs more than the decode.
	path := filepath.Join(dir, "in.rmap")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := blktrace.ReadMappedFile(path)
		requireLabelled(t, err, blktrace.ErrBadFormat)
		if err != nil {
			return
		}
		// A view that opened must serve every package it declares.
		for i := 0; i < m.NumBunches(); i++ {
			for j := 0; j < m.BunchSize(i); j++ {
				m.Package(i, j)
			}
		}
		_, err = m.Materialize()
		requireLabelled(t, err, blktrace.ErrBadFormat)
	})
}

// Replay bounds for FuzzDecodeReplay.  Replay cost grows with a
// trace's horizon, IO count and request sizes, none of which a decoder
// bounds: a fuzzed bunch time near 2^63 ns or an exabyte request is a
// well-formed trace whose replay would exhaust time and memory rather
// than crash.  Inputs past these bounds are skipped.
const (
	fuzzMaxIOs      = 4096
	fuzzMaxHorizon  = simtime.Minute
	fuzzMaxReqBytes = 64 << 20
)

// fuzzReplayable reports whether src is within the replay bounds.
func fuzzReplayable(src replay.BunchSource) bool {
	if src.NumIOs() > fuzzMaxIOs || src.Duration() > fuzzMaxHorizon {
		return false
	}
	for i := 0; i < src.NumBunches(); i++ {
		for j := 0; j < src.BunchSize(i); j++ {
			if src.Package(i, j).Size > fuzzMaxReqBytes {
				return false
			}
		}
	}
	return true
}

// FuzzDecodeReplay closes the loop from decoder to simulator: bytes any
// trace decoder accepts must replay without a panic.  Read and ReadText
// output goes through ReplayChecked on a small HDD RAID-5; a mapped
// trace, which open validates only structurally, goes through the
// sharded executor at one engine.  Replay errors are allowed.
func FuzzDecodeReplay(f *testing.F) {
	dir := f.TempDir()
	var seeds [][]byte
	for i, tr := range fixtureTraces(f) {
		var bin bytes.Buffer
		if err := blktrace.Write(&bin, tr); err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("seed%d.rmap", i))
		if err := blktrace.WriteMappedFile(path, tr); err != nil {
			f.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, bin.Bytes(), blob)
	}
	addCorpusSeeds(f, seeds...)
	cfg := experiments.Config{HDDs: 3}
	path := filepath.Join(dir, "in.rmap")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, decode := range []func(io.Reader) (*blktrace.Trace, error){blktrace.Read, blktrace.ReadText} {
			tr, err := decode(bytes.NewReader(data))
			if err != nil || !fuzzReplayable(tr) {
				continue
			}
			engine, array, err := experiments.NewSystem(cfg, experiments.HDDArray)
			if err != nil {
				t.Fatal(err)
			}
			ReplayChecked(engine, array, tr, Options{})
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := blktrace.ReadMappedFile(path)
		if err != nil || !fuzzReplayable(m) {
			return
		}
		engines, array, err := experiments.NewSystemSharded(cfg, experiments.HDDArray, 1)
		if err != nil {
			t.Fatal(err)
		}
		replay.ReplaySharded(engines, array, m, replay.ShardedOptions{})
	})
}

func FuzzSRTParse(f *testing.F) {
	addCorpusSeeds(f, []byte("# srt-text v1\n0.5 disk0 4096 8192 R\n1.25 disk1 0 512 w\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		srt.Parse(bytes.NewReader(data))
	})
}

func FuzzReadLedger(f *testing.F) {
	trace, err := LoadFixtureTrace(filepath.Join("testdata/golden/optimize", "idle-web"+TraceSuffix))
	if err != nil {
		f.Fatal(err)
	}
	opts := optimizeOptions(1)
	pt := optimize.Point{Policy: "tpm", Params: map[string]float64{"timeout_s": 2}}
	_, decisions, err := optimize.Record(opts, pt, trace)
	if err != nil {
		f.Fatal(err)
	}
	var ledger bytes.Buffer
	h := optimize.LedgerHeader{Policy: pt.Policy, Params: pt.Params, Load: opts.Load, Seed: opts.Config.Seed}
	if err := optimize.WriteLedger(&ledger, h, decisions); err != nil {
		f.Fatal(err)
	}
	addCorpusSeeds(f, ledger.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := optimize.ReadLedger(bytes.NewReader(data))
		requireLabelled(t, err, optimize.ErrBadLedger)
	})
}

func FuzzWorkloadDecode(f *testing.F) {
	var seeds [][]byte
	for _, tr := range fixtureTraces(f) {
		p, err := workload.Analyze(tr, tr.Device)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	addCorpusSeeds(f, seeds...)
	f.Fuzz(func(t *testing.T, data []byte) {
		workload.Decode(bytes.NewReader(data))
	})
}

func FuzzSLOReadAlerts(f *testing.F) {
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		slo.ReadAlerts(data)
	})
}

// FuzzSLOSpec feeds JSON through the path `tracer fleet -slo` takes:
// decode, Spec.Validate, slo.NewEngine.  Validation may reject any
// input, but must not panic, and a spec it accepts must build an
// engine.
func FuzzSLOSpec(f *testing.F) {
	example, err := json.Marshal(slo.ExampleSpec())
	if err != nil {
		f.Fatal(err)
	}
	addCorpusSeeds(f, example,
		[]byte(`{"fast_window_ns":3,"classes":[{"name":"a","objectives":[{"name":"o","kind":"efficiency","floor_iops_per_watt":1}]}]}`),
		[]byte(`{"fast_window_ns":1,"slow_window_ns":3600000000000,"eval_interval_ns":1,"classes":[{"name":"a","objectives":[{"name":"o","kind":"efficiency","floor_iops_per_watt":1}]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s slo.Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		if _, err := slo.NewEngine(s); err != nil {
			t.Fatalf("spec validates but NewEngine rejects it: %v", err)
		}
	})
}

// FuzzNetprotoRecv writes arbitrary bytes into one end of an in-memory
// connection and drains the other through Conn.Recv and DecodeBody into
// every message type.  Malformed, truncated and over-long frames must
// come back as errors — never a panic, and never a Recv that blocks
// once the peer has closed.
func FuzzNetprotoRecv(f *testing.F) {
	var seeds [][]byte
	for _, msg := range []struct {
		typ  string
		body any
	}{
		{netproto.TypeHello, netproto.Hello{Role: "generator"}},
		{netproto.TypeTestResult, netproto.TestResult{}},
		{netproto.TypePowerSamples, netproto.PowerSamples{Samples: []netproto.PowerSample{{}}}},
		{netproto.TypeError, nil},
	} {
		peer, end := net.Pipe()
		sent := make(chan error, 1)
		go func() {
			sent <- netproto.NewConn(peer).Send(msg.typ, 7, msg.body)
			peer.Close()
		}()
		blob, err := io.ReadAll(end)
		if err == nil {
			err = <-sent
		}
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, blob)
	}
	seeds = append(seeds, []byte{0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0, 9, '{'})
	for _, s := range seeds {
		f.Add(s)
	}
	bodies := func() []any {
		return []any{&netproto.Hello{}, &netproto.StartTest{}, &netproto.IntervalReport{},
			&netproto.TestResult{}, &netproto.PowerSamples{}, &netproto.PowerReport{}, &netproto.ErrorReport{}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		peer, end := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			peer.Write(data) // fails once Recv gives up and the test closes its end
			peer.Close()
		}()
		conn := netproto.NewConn(end)
		defer func() {
			conn.Close()
			<-done
		}()
		if err := end.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		for {
			env, err := conn.Recv()
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("Recv blocked after the peer closed: %v", err)
			}
			if err != nil {
				return
			}
			for _, out := range bodies() {
				netproto.DecodeBody(env, out)
			}
		}
	})
}
