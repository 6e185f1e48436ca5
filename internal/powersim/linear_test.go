package powersim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/simtime"
)

// fullScan is the reference integrator: it walks every step from index
// 0 on every call, as the timeline did before it learned to start at
// the step in force at t0.  The differential tests below hold the
// production path to its results bit for bit.
type fullScan struct{ tl *Timeline }

func (r fullScan) EnergyJ(t0, t1 simtime.Time) float64 {
	tl := r.tl
	if t1 <= t0 || len(tl.times) == 0 {
		return 0
	}
	var joules float64
	for i := range tl.times {
		segStart := tl.times[i]
		segEnd := simtime.MaxTime
		if i+1 < len(tl.times) {
			segEnd = tl.times[i+1]
		}
		lo, hi := maxTime(segStart, t0), minTime(segEnd, t1)
		if hi > lo {
			joules += tl.watts[i] * hi.Sub(lo).Seconds()
		}
		if segStart >= t1 {
			break
		}
	}
	return joules
}

func (r fullScan) MeanWatts(t0, t1 simtime.Time) float64 {
	if t1 <= t0 {
		return r.tl.At(t0)
	}
	return r.EnergyJ(t0, t1) / t1.Sub(t0).Seconds()
}

func (r fullScan) Segments(t0, t1 simtime.Time) []Segment {
	tl := r.tl
	if t1 <= t0 || len(tl.times) == 0 {
		return nil
	}
	var segs []Segment
	for i := range tl.times {
		segStart := tl.times[i]
		segEnd := simtime.MaxTime
		if i+1 < len(tl.times) {
			segEnd = tl.times[i+1]
		}
		lo, hi := maxTime(segStart, t0), minTime(segEnd, t1)
		if hi > lo {
			segs = append(segs, Segment{Start: lo, End: hi, Watts: tl.watts[i]})
		}
		if segStart >= t1 {
			break
		}
	}
	return segs
}

// sameBits reports whether two floats are the identical IEEE-754 value.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomTimeline records n power changes on tl starting at first,
// mixing fresh steps with same-time overwrites, no-change Sets and
// relative Adds, all drawn from rng.
func randomTimeline(rng *rand.Rand, tl *Timeline, first simtime.Time, n int) {
	t := first
	w := 5 + rng.Float64()*10
	for i := 0; i < n; i++ {
		switch k := rng.IntN(10); {
		case k < 5: // a fresh step at a later time
			t = t.Add(simtime.Duration(1 + rng.IntN(int(50*simtime.Millisecond))))
			w = 3 + rng.Float64()*20
			tl.Set(t, w)
		case k < 7: // overwrite the step at the same time
			w = 3 + rng.Float64()*20
			tl.Set(t, w)
		case k < 8: // no change: Set keeps the timeline compact
			t = t.Add(simtime.Duration(1 + rng.IntN(int(10*simtime.Millisecond))))
			tl.Set(t, w)
		default: // a relative change
			t = t.Add(simtime.Duration(rng.IntN(int(20 * simtime.Millisecond))))
			dw := rng.Float64()*4 - 2
			tl.Add(t, dw)
			w += dw
		}
	}
}

// windowsFor returns windows that start before the first step, exactly
// on steps, between steps, end past the last step, plus empty and
// inverted windows.
func windowsFor(rng *rand.Rand, tl *Timeline) [][2]simtime.Time {
	var ws [][2]simtime.Time
	n := len(tl.times)
	if n == 0 {
		return [][2]simtime.Time{{0, simtime.Time(sec)}, {simtime.Time(sec), 0}}
	}
	first, last := tl.times[0], tl.times[n-1]
	pick := func() simtime.Time { return tl.times[rng.IntN(n)] }
	span := last.Sub(first) + simtime.Second
	between := func() simtime.Time {
		return first.Add(simtime.Duration(rng.Int64N(int64(span))))
	}
	ws = append(ws,
		[2]simtime.Time{0, last.Add(simtime.Second)},                            // before first, past last
		[2]simtime.Time{first, last},                                            // exactly on the end steps
		[2]simtime.Time{last, last.Add(3 * simtime.Second)},                     // wholly past the last step
		[2]simtime.Time{last.Add(simtime.Second), last.Add(2 * simtime.Second)}, // beyond every step
	)
	for i := 0; i < 40; i++ {
		var t0, t1 simtime.Time
		switch i % 4 {
		case 0: // on a step
			t0 = pick()
			t1 = t0.Add(simtime.Duration(rng.Int64N(int64(span / 4))))
		case 1: // between steps
			t0 = between()
			t1 = t0.Add(simtime.Duration(rng.Int64N(int64(span / 4))))
		case 2: // from before the first step
			t0 = first.Add(-simtime.Duration(rng.Int64N(int64(simtime.Second))))
			t1 = between()
		case 3: // on a step to past the last
			t0 = pick()
			t1 = last.Add(simtime.Duration(rng.Int64N(int64(simtime.Second))))
		}
		ws = append(ws, [2]simtime.Time{t0, t1})
	}
	t := between()
	ws = append(ws, [2]simtime.Time{t, t}, [2]simtime.Time{t.Add(simtime.Second), t}) // empty, inverted
	return ws
}

// diffTimelines builds the seeded random timelines the differential
// tests run over: created by NewTimeline (first step at zero), zero
// value with the first step later than zero, and empty.
func diffTimelines(seed uint64) []*Timeline {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	withBase := NewTimeline(7)
	randomTimeline(rng, withBase, 0, 2000)
	late := &Timeline{}
	randomTimeline(rng, late, simtime.Time(3*sec), 2000)
	sparse := NewTimeline(4)
	randomTimeline(rng, sparse, simtime.Time(sec), 3)
	return []*Timeline{withBase, late, sparse, {}}
}

// TestEnergyMatchesFullScanBits holds EnergyJ, MeanWatts and Segments
// to the full-scan reference with bit equality, not tolerance.
func TestEnergyMatchesFullScanBits(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		wrng := rand.New(rand.NewPCG(seed, 0x3a))
		for ti, tl := range diffTimelines(seed) {
			ref := fullScan{tl}
			for _, w := range windowsFor(wrng, tl) {
				t0, t1 := w[0], w[1]
				if got, want := tl.EnergyJ(t0, t1), ref.EnergyJ(t0, t1); !sameBits(got, want) {
					t.Fatalf("seed %d timeline %d EnergyJ[%v,%v) = %v, full scan %v", seed, ti, t0, t1, got, want)
				}
				if got, want := tl.MeanWatts(t0, t1), ref.MeanWatts(t0, t1); !sameBits(got, want) {
					t.Fatalf("seed %d timeline %d MeanWatts[%v,%v) = %v, full scan %v", seed, ti, t0, t1, got, want)
				}
				got, want := tl.Segments(t0, t1), ref.Segments(t0, t1)
				if len(got) != len(want) {
					t.Fatalf("seed %d timeline %d Segments[%v,%v): %d segments, full scan %d", seed, ti, t0, t1, len(got), len(want))
				}
				for i := range got {
					if got[i].Start != want[i].Start || got[i].End != want[i].End || !sameBits(got[i].Watts, want[i].Watts) {
						t.Fatalf("seed %d timeline %d Segments[%v,%v)[%d] = %+v, full scan %+v", seed, ti, t0, t1, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// sameSamples compares two sample streams bit for bit.
func sameSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, full scan %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.End != w.End || !sameBits(g.Watts, w.Watts) || !sameBits(g.Volts, w.Volts) || !sameBits(g.Amps, w.Amps) {
			t.Fatalf("%s: sample %d = %+v, full scan %+v", what, i, g, w)
		}
	}
}

// TestMeterMatchesFullScanBits runs Meter.Measure and a live Ticker
// over the production timeline and Measure over the full-scan
// reference, with sensor noise on, behind a Sum and a PSU as arrays
// wire them, and requires identical sample streams.
func TestMeterMatchesFullScanBits(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tls := diffTimelines(seed)
		var sum, refSum Sum
		for _, tl := range tls {
			sum = append(sum, tl)
			refSum = append(refSum, fullScan{tl})
		}
		srcs := []struct {
			name     string
			src, ref Source
		}{
			{"timeline", tls[0], fullScan{tls[0]}},
			{"late-timeline", tls[1], fullScan{tls[1]}},
			{"psu", PSU{Source: sum, Efficiency: 0.85, StandbyW: 2}, PSU{Source: refSum, Efficiency: 0.85, StandbyW: 2}},
		}
		for _, s := range srcs {
			for _, cycle := range []simtime.Duration{simtime.Second, 333 * simtime.Millisecond} {
				m := DefaultMeter(s.src)
				m.Cycle, m.Seed = cycle, seed
				rm := *m
				rm.Source = s.ref
				for _, w := range [][2]simtime.Time{
					{0, simtime.Time(40 * sec)},
					{simtime.Time(1500 * simtime.Millisecond), simtime.Time(37*sec + 1)},
				} {
					what := fmt.Sprintf("seed %d %s cycle %v Measure[%v,%v)", seed, s.name, cycle, w[0], w[1])
					want := rm.Measure(w[0], w[1])
					sameSamples(t, what, m.Measure(w[0], w[1]), want)

					e := simtime.NewEngine()
					e.RunUntil(w[0])
					ticker := m.Tick(e, w[1])
					e.Run()
					sameSamples(t, "Ticker "+what, ticker.Samples(), want)
				}
			}
		}
	}
}

// meteredTimeline returns a timeline of d simulated time with
// changesPerSec power changes per simulated second, evenly spaced.
func meteredTimeline(d simtime.Duration, changesPerSec int) *Timeline {
	rng := rand.New(rand.NewPCG(7, 0x11))
	tl := NewTimeline(10)
	step := simtime.Second / simtime.Duration(changesPerSec)
	for t := simtime.Time(step); t < simtime.Time(d); t = t.Add(step) {
		tl.Set(t, 5+rng.Float64()*15)
	}
	return tl
}

// BenchmarkMeterMeasure meters whole replays of growing length at 300
// power changes per simulated second: linear metering costs the same
// per simulated second at every length.
func BenchmarkMeterMeasure(b *testing.B) {
	for _, secs := range []int{60, 600, 3600} {
		d := simtime.Duration(secs) * simtime.Second
		tl := meteredTimeline(d, 300)
		m := DefaultMeter(tl)
		b.Run(fmt.Sprintf("%ds", secs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Measure(0, simtime.Time(d))
			}
		})
	}
}

// TestMeasureLinearInSimTime pins metering to linear cost: ten times
// the simulated time must cost well under the hundredfold a full scan
// per cycle would.  Each side takes the fastest of three timings.
func TestMeasureLinearInSimTime(t *testing.T) {
	fastest := func(secs int) time.Duration {
		d := simtime.Duration(secs) * simtime.Second
		m := DefaultMeter(meteredTimeline(d, 300))
		best := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			m.Measure(0, simtime.Time(d))
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	short, long := fastest(360), fastest(3600)
	if ratio := float64(long) / float64(short); ratio >= 30 {
		t.Fatalf("Measure over 3600 sim-s took %v, %.1fx the %v over 360 sim-s; linear metering is ~10x", long, ratio, short)
	}
}
