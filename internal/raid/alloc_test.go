//go:build !race

// Exact allocation counts hold only in a regular build: the race
// runtime allocates on its own, so these assertions are compiled out
// under -race.

package raid

import (
	"testing"

	"repro/internal/disksim"
	"repro/internal/simtime"
	"repro/internal/storage"
)

// TestSerialCommandPathAllocatesNothing pins the serial command path:
// once its free lists and scratch slices are warm, a healthy RAID-5
// HDD array serves a read, a read-modify-write and a full-stripe write
// from Submit through the caller's done without one allocation.
func TestSerialCommandPathAllocatesNothing(t *testing.T) {
	e := simtime.NewEngine()
	a, err := NewHDDArray(e, DefaultParams(), 6, disksim.Seagate7200())
	if err != nil {
		t.Fatal(err)
	}
	fullStripe := int64(strip * (len(a.Disks()) - 1))
	cases := []struct {
		name string
		req  storage.Request
	}{
		{"read-4KiB", storage.Request{Op: storage.Read, Offset: 3*strip + 8192, Size: 4096}},
		{"rmw-write-4KiB", storage.Request{Op: storage.Write, Offset: 9*strip + 4096, Size: 4096}},
		{"full-stripe-write", storage.Request{Op: storage.Write, Offset: 4 * fullStripe, Size: fullStripe}},
	}
	completed := 0
	done := func(simtime.Time) { completed++ }
	for _, c := range cases {
		run := func() {
			a.Submit(c.req, done)
			e.Run()
		}
		run() // warm the free lists and scratch slices
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s: %v allocs per Submit+drain, want 0", c.name, allocs)
		}
	}
	if want := len(cases) * 102; completed != want {
		t.Fatalf("completed %d requests, want %d", completed, want)
	}
}
