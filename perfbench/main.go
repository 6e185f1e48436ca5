// Command perfbench is the repository benchmark: it synthesizes one
// workload from a seed, runs it through the simulator's public API for
// a fixed host-time budget, checks the simulated results, and prints
// the host-side cost of the run as one JSON line.
//
//	go run . -workload web-hdd -seed 1 -seconds 20 -trace 0
//
// With -trace 1 it alternates untraced and traced reps and prints the
// per-layer metrics instead; the spans go to .bench_build/spans.  README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "web-hdd", "workload: web-hdd, oltp-cache-ssd or fleet-slo")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "host seconds of reps to run")
	traceMode := flag.Int("trace", 0, "1 alternates untraced and traced reps and reports per-layer metrics")
	update := flag.String("update", "", "comma-separated seeds whose expected summaries to regenerate into "+expectedPath+", then exit")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	env := map[string]any{
		"workload":   w.name,
		"seed":       *seed,
		"trace":      *traceMode,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"run_id":     fmt.Sprintf("%s-%d-%d", w.name, *seed, time.Now().UnixNano()),
	}
	if *update != "" {
		return updateExpected(w, *update)
	}
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	want := exp[w.name][strconv.FormatUint(*seed, 10)]
	if want == nil {
		fmt.Fprintf(os.Stderr, "perfbench: no expected summary for %s seed %d; checking invariants and determinism only\n", w.name, *seed)
	}
	traced := *traceMode == 1
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	var plain, tracedReps []*repOut
	var maxRSSMB float64
	var firstRows []byte
	var attempted, failed int64
	var problems []string
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	for i := 0; ; i++ {
		tracedRep := traced && i%2 == 1
		var repTr *tracer
		if tracedRep {
			repTr = tr
			tr.reset()
		}
		// Start every rep from a collected heap, so no rep pays for
		// the garbage of the one before it.
		runtime.GC()
		out, err := w.rep(*seed, repTr)
		if out == nil {
			fmt.Fprintf(os.Stderr, "perfbench: rep %d: %v\n", i, err)
			return 1
		}
		bad := err != nil
		if bad {
			problems = append(problems, fmt.Sprintf("rep %d: %v", i, err))
		}
		rows, err := json.Marshal(out.rows)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: rep %d summary: %v\n", i, err)
			return 1
		}
		if firstRows == nil {
			firstRows = rows
		} else if string(rows) != string(firstRows) {
			bad = true
			problems = append(problems, fmt.Sprintf("rep %d (traced=%v) summary differs from rep 0:\n  %s\n  %s", i, tracedRep, rows, firstRows))
		}
		if want != nil {
			if diffs := compareRows(want, out.rows); len(diffs) > 0 {
				bad = true
				problems = append(problems, fmt.Sprintf("rep %d: %s", i, strings.Join(diffs, "; ")))
			}
		}
		attempted += out.offered()
		if bad {
			failed += out.offered()
		} else {
			failed += out.offered() - out.completed()
		}
		w50, w99 := windowPercentiles([]*repOut{out})
		fmt.Fprintf(os.Stderr, "rep %d traced=%v setup=%.3fs phase=%.3fs ios=%d gc=%d windows=%d p50=%.4fms p99=%.4fms\n",
			i, tracedRep, out.setup.Seconds(), out.phase.Seconds(), out.completed(), out.allocs.gcCycles, len(out.windowsMs), w50, w99)
		switch {
		case i == 0:
			// Warm-up: checked, not measured, so every measured rep
			// runs on a heap and page tables the process already holds.
			// It is untraced and the process's first rep, so the peak
			// resident memory so far is the workload's in either mode.
			var ru syscall.Rusage
			_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF
			maxRSSMB = float64(ru.Maxrss) / 1024
		case tracedRep:
			tracedReps = append(tracedReps, out)
		default:
			plain = append(plain, out)
		}
		enough := len(plain) >= 3
		if traced {
			enough = len(tracedReps) >= 1 && len(tracedReps) == len(plain)
		}
		if enough && time.Now().After(deadline) {
			break
		}
	}

	res := result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		layers, err := layerMetrics(w, *seed, tr, plain, tracedReps, maxRSSMB)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		res.Metrics = layers
		env["spans"] = spanFile(w.name, *seed)
		if err := tr.write(spanFile(w.name, *seed), env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	} else {
		res.Metrics = endToEnd(plain, attempted, failed)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	env["reps"] = len(plain) + len(tracedReps)
	env["warmup_reps"] = 1
	stamp, _ := json.Marshal(env) // strings and integers cannot fail to encode
	fmt.Fprintf(os.Stderr, "env %s\n", stamp)
	fmt.Printf("env %s\n", stamp)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd computes the user-visible metrics over the untraced reps.
func endToEnd(reps []*repOut, attempted, failed int64) map[string]metric {
	var setup, allocs, bytes []float64
	for _, r := range reps {
		n := float64(r.completed())
		setup = append(setup, r.setup.Seconds())
		allocs = append(allocs, float64(r.allocs.objects)/n)
		bytes = append(bytes, float64(r.allocs.bytes)/n)
	}
	p50, p99 := windowPercentiles(reps)
	return map[string]metric{
		"ios_per_s":          {median(iosPerSec(reps)), "1/s"},
		"setup_s":            {median(setup), "s"},
		"window_p50_ms":      {p50, "ms"},
		"window_p99_ms":      {p99, "ms"},
		"allocs_per_io":      {median(allocs), "count"},
		"alloc_bytes_per_io": {median(bytes), "B"},
		"io_done_frac":       {float64(attempted-failed) / float64(attempted), "ratio"},
	}
}

// layerMetrics takes the median of each per-layer metric over the
// traced reps and the GC figures from the untraced reps, runs the RAID
// planning ladder, and reports the warm-up's peak memory and the
// tracing overhead.
func layerMetrics(w *workload, seed uint64, tr *tracer, plain, traced []*repOut, maxRSSMB float64) (map[string]metric, error) {
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	m := map[string]float64{}
	for k, v := range vals {
		m[k] = median(v)
	}
	var gc, pause []float64
	for _, r := range plain {
		gc = append(gc, float64(r.allocs.gcCycles))
		pause = append(pause, r.allocs.gcPause.Seconds())
	}
	m["runtime.gc_cycles"] = median(gc)
	m["runtime.gc_pause_s"] = median(pause)
	m["runtime.max_rss_mb"] = maxRSSMB
	m["trace.overhead_ios_per_s"] = median(iosPerSec(plain)) - median(iosPerSec(traced))

	reqs, spare, err := w.ladder(seed)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	planLadder(tr, reqs, spare, m)

	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{m[l.name], l.unit}
	}
	return out, nil
}

func iosPerSec(reps []*repOut) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, float64(r.completed())/r.phase.Seconds())
	}
	return out
}

// updateExpected regenerates the expected summaries for the listed
// seeds from one untraced rep each.
func updateExpected(w *workload, seeds string) int {
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: bad seed %q\n", s)
			return 2
		}
		out, err := w.rep(seed, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, err)
			return 1
		}
		if err := writeExpected(w.name, seed, out.rows); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "updated %s seed %d\n", w.name, seed)
	}
	return 0
}

// minBlockWindows is the fewest windows one percentile block holds,
// so that its p99 has at least ten samples beyond it.
const minBlockWindows = 1000

// windowPercentiles groups consecutive reps' window times into blocks
// of at least minBlockWindows, takes each block's nearest-rank p50 and
// p99, and reports the medians over blocks.  A leftover partial block
// is dropped unless it is the only one.
func windowPercentiles(reps []*repOut) (p50, p99 float64) {
	var b50, b99, block []float64
	for i, r := range reps {
		block = append(block, r.windowsMs...)
		if len(block) < minBlockWindows && !(i == len(reps)-1 && len(b50) == 0) {
			continue
		}
		sort.Float64s(block)
		b50 = append(b50, nearestRank(block, 0.50))
		b99 = append(b99, nearestRank(block, 0.99))
		block = nil
	}
	return median(b50), median(b99)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// nearestRank returns the q-quantile of sorted values, nearest rank.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
