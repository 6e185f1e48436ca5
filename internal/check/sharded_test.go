package check

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/replay"
)

var goldenShardCounts = []int{1, 2, 8}

// TestShardedGoldenByteIdentity is the headline acceptance gate: on the
// committed golden corpus, the sharded executor at shard counts 1, 2
// and 8 must produce golden documents byte-identical to the serial
// build, and both must agree with the committed JSON.
func TestShardedGoldenByteIdentity(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*"+TraceSuffix))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden fixtures (err=%v)", err)
	}
	for _, tracePath := range paths {
		name := strings.TrimSuffix(filepath.Base(tracePath), TraceSuffix)
		t.Run(name, func(t *testing.T) {
			trace, err := LoadFixtureTrace(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := BuildGolden(name, trace)
			if err != nil {
				t.Fatal(err)
			}
			serialJSON, err := json.MarshalIndent(serial, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			committed, err := readGolden[*Golden](strings.TrimSuffix(tracePath, TraceSuffix) + GoldenSuffix)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range goldenShardCounts {
				sharded, err := BuildGoldenSharded(name, trace, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				shardedJSON, err := json.MarshalIndent(sharded, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialJSON, shardedJSON) {
					for _, d := range CompareGolden(serial, sharded, 0) {
						t.Errorf("shards=%d: %s", shards, d)
					}
					t.Fatalf("shards=%d: golden document not byte-identical to serial build", shards)
				}
				if diffs := CompareGolden(committed, sharded, DefaultTol); len(diffs) != 0 {
					for _, d := range diffs {
						t.Errorf("shards=%d vs committed: %s", shards, d)
					}
				}
			}
		})
	}
}

// TestShardedDifferentialFuzz replays seeded random traces through the
// serial and sharded executors and requires identical fire ordering per
// disk: the Result and the controller counters must agree exactly, and
// the full invariant suite must hold on the sharded run.
func TestShardedDifferentialFuzz(t *testing.T) {
	cfg := experiments.DefaultConfig()
	for _, seed := range []uint64{2, 13, 99} {
		trace := RandomTrace(DefaultFuzzParams(seed))
		for _, kind := range goldenKinds {
			serialEngine, serialArray, err := experiments.NewSystem(cfg, kind)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replay.Replay(serialEngine, serialArray, trace, replay.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range goldenShardCounts {
				engines, array, err := experiments.NewSystemSharded(cfg, kind, shards)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ReplayShardedChecked(engines, array, trace, Options{})
				if err != nil {
					t.Fatalf("seed=%d kind=%s shards=%d: %v", seed, kind, shards, err)
				}
				if err := res.Report.Err(); err != nil {
					t.Errorf("seed=%d kind=%s shards=%d: %v", seed, kind, shards, err)
				}
				got := res.Replay
				if got.Issued != want.Issued || got.Completed != want.Completed ||
					got.Bytes != want.Bytes || got.MeanResponse != want.MeanResponse ||
					got.MaxResponse != want.MaxResponse || got.End != want.End {
					t.Errorf("seed=%d kind=%s shards=%d: result diverged from serial:\n got %+v\nwant %+v",
						seed, kind, shards, got, want)
				}
				if gs, ws := array.Stats(), serialArray.Stats(); gs != ws {
					t.Errorf("seed=%d kind=%s shards=%d: controller stats %+v != %+v", seed, kind, shards, gs, ws)
				}
			}
		}
	}
}

// TestShardedCheckedLoadFilter exercises the filtered path and the
// drained assertion.
func TestShardedCheckedLoadFilter(t *testing.T) {
	trace := RandomTrace(DefaultFuzzParams(5))
	engines, array, err := experiments.NewSystemSharded(experiments.DefaultConfig(), experiments.HDDArray, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayShardedChecked(engines, array, trace, Options{Load: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Report.Err(); err != nil {
		t.Error(err)
	}
	if res.Replay.Filter == "" {
		t.Error("filtered run did not record its filter name")
	}
	if res.Replay.Issued >= int64(trace.NumIOs()) {
		t.Errorf("load 0.5 issued %d of %d IOs (no filtering?)", res.Replay.Issued, trace.NumIOs())
	}
	found := false
	for _, c := range res.Report.Checked {
		if c == "engine-drained" {
			found = true
		}
	}
	if !found {
		t.Error("engine-drained was not asserted")
	}
}
