package raid

import (
	"math/rand/v2"
	"testing"

	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

func TestFailDiskValidation(t *testing.T) {
	e := simtime.NewEngine()
	a5, _ := fakeArray(t, e, RAID5, 4)
	if err := a5.FailDisk(9); err == nil {
		t.Fatal("out-of-range member accepted")
	}
	if err := a5.FailDisk(-1); err == nil {
		t.Fatal("negative member accepted")
	}
	if !a5.Healthy() {
		t.Fatal("array unhealthy before any failure")
	}
	if err := a5.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	if a5.Healthy() {
		t.Fatal("array healthy after failure")
	}
	if err := a5.FailDisk(2); err == nil {
		t.Fatal("second failure accepted")
	}
	a0, _ := fakeArray(t, e, RAID0, 2)
	if err := a0.FailDisk(0); err == nil {
		t.Fatal("RAID0 failure accepted")
	}
}

func TestDegradedReadReconstructs(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	// Strip 0 lives on a known disk; find and fail it.
	segs := a.mapRange(nil, 0, strip)
	victim := segs[0].disk
	if err := a.FailDisk(victim); err != nil {
		t.Fatal(err)
	}
	completed := false
	a.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("degraded read never completed")
	}
	// Reconstruction reads the range from all three survivors.
	reads, writes := countOps(fakes)
	if reads != 3 || writes != 0 {
		t.Fatalf("reads=%d writes=%d, want 3/0", reads, writes)
	}
	if len(fakes[victim].reqs) != 0 {
		t.Fatal("failed disk received I/O")
	}
	if a.Stats().ReconstructReads != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestDegradedReadOtherDisksUnaffected(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	segs := a.mapRange(nil, 0, strip)
	victim := segs[0].disk
	if err := a.FailDisk((victim + 1) % 4); err != nil {
		t.Fatal(err)
	}
	a.Submit(storage.Request{Op: storage.Read, Offset: 0, Size: 4096}, func(simtime.Time) {})
	e.Run()
	reads, _ := countOps(fakes)
	if reads != 1 {
		t.Fatalf("read to healthy member fanned out: %d ops", reads)
	}
	if a.Stats().ReconstructReads != 0 {
		t.Fatal("unnecessary reconstruction")
	}
}

func TestDegradedWriteParityLost(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	segs := a.mapRange(nil, 0, 4096)
	if err := a.FailDisk(segs[0].parityDisk); err != nil {
		t.Fatal(err)
	}
	completed := false
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	// Parity lost: no pre-reads, a single data write.
	reads, writes := countOps(fakes)
	if reads != 0 || writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 0/1", reads, writes)
	}
	if a.Stats().DegradedStripes != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestDegradedWriteDataLostReconstructWrite(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	segs := a.mapRange(nil, 0, 4096)
	if err := a.FailDisk(segs[0].disk); err != nil {
		t.Fatal(err)
	}
	completed := false
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 4096}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	// Reconstruct-write: read the 2 surviving data disks, then write
	// parity only (the data member is gone).
	reads, writes := countOps(fakes)
	if reads != 2 || writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 2/1", reads, writes)
	}
	s := a.Stats()
	if s.ParityWrites != 1 || s.DegradedStripes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDegradedFullStripeWrite(t *testing.T) {
	e := simtime.NewEngine()
	a, fakes := fakeArray(t, e, RAID5, 4)
	if err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	completed := false
	a.Submit(storage.Request{Op: storage.Write, Offset: 0, Size: 3 * strip}, func(simtime.Time) { completed = true })
	e.Run()
	if !completed {
		t.Fatal("write never completed")
	}
	reads, writes := countOps(fakes)
	if reads != 0 {
		t.Fatalf("full-stripe degraded write issued %d reads", reads)
	}
	// One member lost: 4 writes (3 data + parity) become 3.
	if writes != 3 {
		t.Fatalf("writes = %d, want 3", writes)
	}
	if len(fakes[0].reqs) != 0 {
		t.Fatal("failed disk received I/O")
	}
}

func TestDegradedModeCorrectnessUnderRandomLoad(t *testing.T) {
	e := simtime.NewEngine()
	a, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	const n = 300
	completions := 0
	for i := 0; i < n; i++ {
		op := storage.Read
		if rng.IntN(2) == 1 {
			op = storage.Write
		}
		off := rng.Int64N(a.Capacity()/4096-64) * 4096
		a.Submit(storage.Request{Op: op, Offset: off, Size: 4096 * (1 + rng.Int64N(16))}, func(simtime.Time) { completions++ })
	}
	e.Run()
	if completions != n {
		t.Fatalf("completed %d of %d degraded requests", completions, n)
	}
	// The failed member's drive must have stayed untouched.
	hdd := a.Disks()[2].(*disksim.HDD)
	if hdd.Stats().Served != 0 {
		t.Fatalf("failed disk served %d requests", hdd.Stats().Served)
	}
}

func TestDegradedSlowerThanHealthy(t *testing.T) {
	run := func(fail bool) simtime.Time {
		e := simtime.NewEngine()
		a, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
		if err != nil {
			t.Fatal(err)
		}
		if fail {
			if err := a.FailDisk(0); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewPCG(4, 4))
		for i := 0; i < 200; i++ {
			off := rng.Int64N(a.Capacity()/4096-1) * 4096
			a.Submit(storage.Request{Op: storage.Read, Offset: off, Size: 4096}, func(simtime.Time) {})
		}
		e.Run()
		return e.Now()
	}
	healthy, degraded := run(false), run(true)
	if degraded <= healthy {
		t.Fatalf("degraded run (%v) should be slower than healthy (%v)", degraded, healthy)
	}
}
