package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/slo"
	"repro/internal/telemetry"
)

// cmdReplay runs one fully instrumented replay: the trace is filtered
// to the requested load, replayed on a fresh array with every telemetry
// producer wired (replay probe, per-disk spans, power channel, kernel
// gauges), and the artifact directory is exported — summary.json,
// series.csv, events.jsonl, power_wall.csv and a Chrome trace that
// opens in Perfetto.  `tracer report -dir DIR` renders the result.
//
// -replay-shards N > 1 runs the sharded executor (one event loop per
// shard, member disks striped across shards); results are bit-identical
// to the serial run at any shard count.  An -in file that starts with
// the ".rmap" magic (see traceconv -mode bin2map) is opened memory-
// mapped and replayed zero-copy on the sharded executor; any other -in
// file decodes as a binary ".replay" trace.  A load below 100% still
// materializes a mapped trace, since filtering rewrites the bunch list.
//
// -cache-tier interposes a writeback cache (see internal/cache) between
// the replay and the array; the remaining -cache-* flags tune it and
// are rejected without a tier, so a typo cannot silently replay
// uncached.  The cache front end is serial-engine only: it composes
// with neither -replay-shards above 1 nor a mapped input.
func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	in := fs.String("in", "", "replay a trace file directly instead of a repository entry")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	load := fs.Float64("load", 100, "load percentage")
	telemetryDir := fs.String("telemetry-dir", "telemetry", "artifact output directory")
	cadence := fs.Duration("cadence", 1_000_000_000, "time-series sampling cadence (sim time)")
	shards := fs.Int("replay-shards", 1, "event-loop shards for the replay (1 = serial engine)")
	cf := registerCacheFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*name == "") == (*in == "") {
		return fmt.Errorf("replay: exactly one of -trace or -in is required")
	}
	if *load <= 0 || *load > 1000 {
		return fmt.Errorf("replay: bad load percentage %v", *load)
	}
	if *shards < 1 {
		return fmt.Errorf("replay: bad shard count %d", *shards)
	}
	if err := cf.validate("replay", fs); err != nil {
		return err
	}
	if *cf.tier != "" && *shards > 1 {
		return fmt.Errorf("replay: -cache-tier does not compose with -replay-shards %d (the cache tier is serial-engine only)", *shards)
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	mapped := false
	if *in != "" {
		if mapped, err = blktrace.IsMappedFile(*in); err != nil {
			return err
		}
	}
	if *cf.tier != "" && mapped {
		return fmt.Errorf("replay: -cache-tier does not compose with a mapped (.rmap) input %s", *in)
	}
	var src replay.BunchSource
	if mapped {
		m, err := blktrace.OpenMapped(*in)
		if err != nil {
			return err
		}
		defer m.Close()
		src = m
	} else {
		var tr *blktrace.Trace
		if *in != "" {
			tr, err = blktrace.ReadFile(*in)
		} else {
			var repo *repository.Repository
			if repo, err = repository.Open(*dir); err == nil {
				tr, err = repo.Load(*name)
			}
		}
		if err != nil {
			return err
		}
		src = tr
	}
	set := telemetry.New(telemetry.Options{Cadence: simtime.FromStd(*cadence)})
	if *cf.tier != "" {
		m, err := experiments.MeasureCachedAtLoadTelemetry(experiments.DefaultConfig(), kind, cf.spec(), src.(*blktrace.Trace), *load/100, set)
		if err != nil {
			return err
		}
		if err := set.WriteDir(*telemetryDir); err != nil {
			return err
		}
		r := m.Result
		fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s behind %s: %.1f IOPS, %.3f MBPS, %.1f W\n",
			r.Completed, *load, kind, m.Spec, r.IOPS, r.MBPS, m.Power)
		fmt.Fprintf(out, "cache: %.1f%% hit (%d/%d), %d writebacks (%.1f KiB), %d evictions\n",
			m.Cache.HitRate()*100, m.Cache.Hits, m.Cache.Hits+m.Cache.Misses,
			m.Cache.Writebacks, float64(m.Cache.WritebackBytes)/1024, m.Cache.Evictions)
		fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
			*telemetryDir, *telemetryDir)
		return nil
	}
	var run *experiments.TelemetryRun
	if *shards > 1 || mapped {
		run, err = experiments.MeasureAtLoadTelemetrySharded(experiments.DefaultConfig(), kind, src, *load/100, set, *shards)
	} else {
		run, err = experiments.MeasureAtLoadTelemetry(experiments.DefaultConfig(), kind, src.(*blktrace.Trace), *load/100, set)
	}
	if err != nil {
		return err
	}
	if err := set.WriteDir(*telemetryDir); err != nil {
		return err
	}
	r := run.Meas.Result
	fmt.Fprintf(out, "replayed %d IOs at load %.0f%% on %s (%d shard(s)%s): %.1f IOPS, %.3f MBPS, %.1f W\n",
		r.Completed, *load, kind, *shards, map[bool]string{true: ", mmap"}[mapped], r.IOPS, r.MBPS, run.Meas.Power)
	fmt.Fprintf(out, "telemetry written to %s (render with: tracer report -dir %s)\n",
		*telemetryDir, *telemetryDir)
	return nil
}

// cmdReport renders a telemetry artifact directory as text tables:
// metric totals with per-window mean/max, histogram quantiles,
// per-channel power digests — and, when the run carried an SLO engine,
// the burn-rate alert stream from alerts.jsonl.  -alert SEQ drills
// into one alert's full record.
func cmdReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	dir := fs.String("dir", "telemetry", "telemetry artifact directory")
	alertSeq := fs.Int("alert", 0, "drill into the alert with this sequence number (requires alerts.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	blob, alertsErr := os.ReadFile(filepath.Join(*dir, slo.AlertsFile))
	if *alertSeq > 0 {
		if alertsErr != nil {
			return fmt.Errorf("report: -alert: %w", alertsErr)
		}
		return renderAlertDetail(out, blob, *alertSeq)
	}
	if err := telemetry.RenderReport(out, *dir); err != nil {
		return err
	}
	if alertsErr == nil {
		if err := renderAlerts(out, blob); err != nil {
			return err
		}
	}
	return nil
}

// renderAlerts prints the alert stream as a table.
func renderAlerts(out io.Writer, blob []byte) error {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return err
	}
	if len(alerts) == 0 {
		fmt.Fprintln(out, "\nno burn-rate alerts fired")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nSEQ\tAT\tEVENT\tCLASS\tOBJECTIVE\tFAST\tSLOW\tBUDGET\tTOP ARRAYS")
	for _, a := range alerts {
		var tops []string
		for _, t := range a.TopArrays {
			tops = append(tops, fmt.Sprintf("%d(%d)", t.Array, t.Bad))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%.2f\t%.2f\t%.0f%%\t%s\n",
			a.Seq, formatSim(a.At), a.Event, a.Class, a.Objective,
			a.FastBurn, a.SlowBurn, a.BudgetRemaining*100, strings.Join(tops, " "))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "drill down with: tracer report -dir DIR -alert SEQ")
	return nil
}

// renderAlertDetail dumps one alert's full record as indented JSON.
func renderAlertDetail(out io.Writer, blob []byte, seq int) error {
	alerts, err := slo.ReadAlerts(blob)
	if err != nil {
		return err
	}
	for _, a := range alerts {
		if a.Seq != seq {
			continue
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(a)
	}
	return fmt.Errorf("report: no alert with seq %d (stream has %d)", seq, len(alerts))
}
