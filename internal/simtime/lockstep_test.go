package simtime

import (
	"runtime"
	"testing"
	"time"
)

// waitGoroutines polls until runtime.NumGoroutine drops to want: a
// goroutine that has signalled its exit still needs a moment to leave
// the scheduler's count.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("NumGoroutine = %d, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLockstepDrainsEveryParticipant checks the barrier contract at the
// widths the determinism gates use: when DrainThrough returns, every
// participant has drained its engine through exactly that limit.
func TestLockstepDrainsEveryParticipant(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		engines := make([]*Engine, n)
		fired := make([]int, n)
		for i := range engines {
			e := NewEngine()
			for k := 0; k < 4; k++ {
				i := i
				e.Schedule(Time(10*k+i), func() { fired[i]++ })
			}
			engines[i] = e
		}
		seen := make([]Time, n)
		ls := NewLockstep(n, func(i int, limit Time) {
			engines[i].DrainThrough(limit)
			seen[i] = limit
		})
		for _, limit := range []Time{5, 15, 15, MaxTime} {
			ls.DrainThrough(limit)
			for i, e := range engines {
				if seen[i] != limit {
					t.Fatalf("n=%d participant %d saw limit %v, want %v", n, i, seen[i], limit)
				}
				if e.Pending() > 0 && e.NextEventAt() <= limit {
					t.Fatalf("n=%d participant %d left an event at %v <= limit %v", n, i, e.NextEventAt(), limit)
				}
			}
		}
		ls.Close()
		for i, c := range fired {
			if c != 4 {
				t.Fatalf("n=%d participant %d fired %d events, want 4", n, i, c)
			}
		}
	}
}

// TestLockstepSingleRunsInline: one participant needs no goroutine, so
// the drain runs on the caller's goroutine.
func TestLockstepSingleRunsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	during := -1
	ls := NewLockstep(1, func(int, Time) { during = runtime.NumGoroutine() })
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("NewLockstep(1) started goroutines: %d -> %d", base, got)
	}
	ls.DrainThrough(1)
	if during != base {
		t.Fatalf("inline drain saw %d goroutines, want %d", during, base)
	}
	ls.Close()
}

// TestLockstepCloseStopsGoroutines: Close leaves no participant
// goroutine behind.
func TestLockstepCloseStopsGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	ls := NewLockstep(8, func(int, Time) {})
	if got := runtime.NumGoroutine(); got != base+8 {
		t.Fatalf("NewLockstep(8): NumGoroutine %d, want %d", got, base+8)
	}
	ls.DrainThrough(1)
	ls.Close()
	waitGoroutines(t, base)
}

// TestLockstepDrainAllocatesNothing pins the per-window cost: the
// handshake moves a Time over unbuffered channels and allocates nothing.
func TestLockstepDrainAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 2, 8} {
		engines := make([]*Engine, n)
		for i := range engines {
			engines[i] = NewEngine()
		}
		ls := NewLockstep(n, func(i int, limit Time) { engines[i].DrainThrough(limit) })
		limit := Time(0)
		allocs := testing.AllocsPerRun(200, func() {
			limit++
			ls.DrainThrough(limit)
		})
		ls.Close()
		if allocs != 0 {
			t.Fatalf("n=%d: DrainThrough allocated %v times per window, want 0", n, allocs)
		}
	}
}
