// Command tracer is the TRACER command-line interface: it replaces the
// paper's Windows GUI as the operator-facing front end of the
// framework.  It builds trace repositories, runs load-controlled
// replay tests against the simulated arrays while metering power, and
// queries the results database.
//
// Usage:
//
//	tracer collect   -repo DIR [-device hdd|ssd] [-size N] [-read F] [-random F] [-duration D] [-qd N] [-all] [-workers N]
//	tracer gen-real  -repo DIR [-device hdd|ssd] -kind web|cello|oltp
//	tracer repo      -repo DIR
//	tracer stats     -repo DIR -trace NAME
//	tracer analyze   -repo DIR -trace NAME | -in FILE [-out profile.json] [-name LABEL]
//	tracer test      -repo DIR -trace NAME [-device hdd|ssd] [-loads 10,50,100] [-db FILE] [-workers N]
//	tracer query     [-db FILE] [-device NAME] [-minload F] [-maxload F]
//	tracer convert   -in FILE.srt -out FILE.replay [-srcdev NAME] [-window D]
//	tracer slice     -repo DIR -trace NAME -to D [-from D]
//	tracer merge     -repo DIR -traces A,B[,C...] [-label L]
//	tracer remap     -repo DIR -trace NAME -from-bytes N -to-bytes N
//	tracer dump      -repo DIR -trace NAME [-n 10]
//	tracer replay    -repo DIR -trace NAME | -in FILE [-device hdd|ssd] [-load PCT] [-telemetry-dir DIR] [-cadence D] [-cache-tier dram|ssd [-cache-mb N] [-cache-evict P] [-cache-admit P]]
//	tracer cachestudy [-in FILE | -repo DIR -trace NAME] [-device hdd|ssd] [-loads 50,100] [-specs uncached,dram:32,ssd:256] [-workers N] [-json FILE]
//	tracer fleet     -arrays N [-workers W] [-policy P] [-device hdd|ssd] [-duration D] [-iops F] [-admit-rate F] [-power-cap W] [-telemetry-dir DIR] [-slo SPEC [-watch]] [-fail A@T[:D],... | -mtbf D]
//	tracer report    [-dir DIR] [-alert SEQ]
//	tracer verify    [-gate golden|fidelity|optimize|cache|slo|all] [-golden DIR] [-update] [-tol F] [-seed N] [-telemetry-dir DIR]
//	tracer optimize  [-policy P[,P...]] [-space SPEC] [-driver grid|evolve] [-in FILE] [-load PCT] [-workers N] [-ledger-dir DIR] [-telemetry-dir DIR]
//	tracer whatif    -ledger FILE (-decision N | -list) [-in FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/parsweep"
	"repro/internal/powersim"
	"repro/internal/replay"
	"repro/internal/repository"
	"repro/internal/simtime"
	"repro/internal/srt"
	"repro/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		usage(out)
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "collect":
		return cmdCollect(args[1:], out)
	case "gen-real":
		return cmdGenReal(args[1:], out)
	case "repo":
		return cmdRepo(args[1:], out)
	case "stats":
		return cmdStats(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "test":
		return cmdTest(args[1:], out)
	case "query":
		return cmdQuery(args[1:], out)
	case "convert":
		return cmdConvert(args[1:], out)
	case "slice":
		return cmdSlice(args[1:], out)
	case "merge":
		return cmdMerge(args[1:], out)
	case "remap":
		return cmdRemap(args[1:], out)
	case "dump":
		return cmdDump(args[1:], out)
	case "replay":
		return cmdReplay(args[1:], out)
	case "cachestudy":
		return cmdCacheStudy(args[1:], out)
	case "fleet":
		return cmdFleet(args[1:], out)
	case "report":
		return cmdReport(args[1:], out)
	case "verify":
		return cmdVerify(args[1:], out)
	case "optimize":
		return cmdOptimize(args[1:], out)
	case "whatif":
		return cmdWhatIf(args[1:], out)
	case "help", "-h", "--help":
		usage(out)
		return nil
	default:
		usage(out)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(out io.Writer) {
	fmt.Fprintln(out, `tracer — load-controllable energy-efficiency evaluation for storage systems
subcommands: collect, gen-real, repo, stats, analyze, test, query, convert, slice, merge, remap, dump, replay, cachestudy, fleet, report, verify, optimize, whatif`)
}

// cmdCollect builds peak synthetic traces into a repository.
func cmdCollect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	size := fs.Int64("size", 4096, "request size in bytes")
	read := fs.Float64("read", 0.5, "read ratio [0,1]")
	random := fs.Float64("random", 0.5, "random ratio [0,1]")
	duration := fs.Duration("duration", 2_000_000_000, "collection duration (virtual time)")
	qd := fs.Int("qd", 8, "outstanding IOs (queue depth)")
	all := fs.Bool("all", false, "collect the paper's full 125-mode sweep")
	seed := fs.Uint64("seed", 1, "generator seed")
	workers := fs.Int("workers", 0, "parallel collection cells (0 = all cores, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	modes := []synth.Mode{{RequestBytes: *size, ReadRatio: *read, RandomRatio: *random}}
	if *all {
		modes = synth.PaperModes()
	}
	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	// Collection cells (one fresh array each) fan across the worker
	// pool — the -all sweep is 125 modes; storing stays sequential so
	// repository writes and output order are untouched.
	traces, err := parsweep.Map(context.Background(),
		parsweep.Options{
			Workers: cfg.Workers,
			Label:   func(i int) string { return fmt.Sprintf("collect %s", modes[i]) },
		},
		len(modes),
		func(i int) (*blktrace.Trace, error) {
			e, a, err := experiments.NewSystem(cfg, kind)
			if err != nil {
				return nil, err
			}
			return synth.Collect(e, a, synth.CollectParams{
				Mode:            modes[i],
				Duration:        simtime.FromStd(*duration),
				QueueDepth:      *qd,
				WorkingSetBytes: cfg.WorkingSet,
				Seed:            *seed,
			})
		})
	if err != nil {
		return err
	}
	for i, tr := range traces {
		entry, err := repo.StoreSynthetic(kind.String(), modes[i], tr)
		if err != nil {
			return err
		}
		st := blktrace.ComputeStats(tr)
		fmt.Fprintf(out, "collected %s: %d IOs, %.0f IOPS peak, %.2f MBPS peak\n",
			filepath.Base(entry.Path), st.IOs, st.MeanIOPS, st.MeanMBPS)
	}
	return nil
}

// cmdGenReal synthesises the real-world-like traces into a repository.
func cmdGenReal(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen-real", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	device := fs.String("device", "hdd", "array kind the trace is labelled for")
	kindName := fs.String("kind", "web", "trace kind: web, cello or oltp")
	seed := fs.Uint64("seed", 1, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	var tr *blktrace.Trace
	var label string
	switch *kindName {
	case "web":
		p := synth.DefaultWebServer()
		p.Seed = *seed
		tr, label = synth.WebServerTrace(p), "web-o4"
	case "cello":
		p := synth.DefaultCello()
		p.Seed = *seed
		tr, label = synth.CelloTrace(p), "cello99"
	case "oltp":
		p := synth.DefaultOLTP()
		p.Seed = *seed
		tr, label = synth.OLTPTrace(p), "oltp"
	default:
		return fmt.Errorf("unknown real-trace kind %q (want web, cello or oltp)", *kindName)
	}
	entry, err := repo.StoreReal(kind.String(), label, tr)
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "generated %s: %d IOs, read %.1f%%, mean req %.1f KB\n",
		filepath.Base(entry.Path), st.IOs, st.ReadRatio*100, st.AvgRequestBytes/1024)
	return nil
}

// cmdRepo lists the repository.
func cmdRepo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repo", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	entries, err := repo.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		fmt.Fprintln(out, "(empty repository)")
		return nil
	}
	for _, e := range entries {
		switch {
		case e.IsReal():
			fmt.Fprintf(out, "%s\treal\t%s\n", filepath.Base(e.Path), e.RealLabel)
		case e.IsDerived():
			fmt.Fprintf(out, "%s\tderived\tprofile %s seed %d\n", filepath.Base(e.Path), e.ProfileLabel, e.Seed)
		default:
			fmt.Fprintf(out, "%s\tsynthetic\t%s\n", filepath.Base(e.Path), e.Mode)
		}
	}
	return nil
}

// cmdStats prints trace statistics.
func cmdStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("stats: -trace is required")
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	tr, err := repo.Load(*name)
	if err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "trace %s (device %s)\n", *name, tr.Device)
	fmt.Fprintf(out, "bunches %d, IOs %d, duration %.3fs\n", st.Bunches, st.IOs, st.Duration.Seconds())
	fmt.Fprintf(out, "read ratio %.2f%%, random ratio %.2f%%, mean request %.1f KB\n",
		st.ReadRatio*100, st.RandomRatio*100, st.AvgRequestBytes/1024)
	fmt.Fprintf(out, "offered load: %.1f IOPS, %.2f MBPS, max concurrency %d\n",
		st.MeanIOPS, st.MeanMBPS, st.MaxBunchSize)
	return nil
}

// parseLoads parses "10,50,100" into proportions.
func parseLoads(s string) ([]float64, error) {
	var loads []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		pct, err := strconv.ParseFloat(part, 64)
		if err != nil || pct <= 0 || pct > 1000 {
			return nil, fmt.Errorf("bad load level %q", part)
		}
		loads = append(loads, pct/100)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("no load levels given")
	}
	return loads, nil
}

// cmdTest runs energy-efficiency tests: replay at each load level with
// power metering, print one row per level, and persist records.
func cmdTest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	dir := fs.String("repo", "traces", "trace repository directory")
	name := fs.String("trace", "", "trace file name within the repository")
	device := fs.String("device", "hdd", "array kind: hdd or ssd")
	loadsStr := fs.String("loads", "100", "comma-separated load percentages (e.g. 10,50,100)")
	dbPath := fs.String("db", "", "results database file (JSON); empty disables persistence")
	workers := fs.Int("workers", 0, "parallel load-level replays (0 = all cores, 1 = sequential)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("test: -trace is required")
	}
	kind, err := experiments.KindFromString(*device)
	if err != nil {
		return err
	}
	loads, err := parseLoads(*loadsStr)
	if err != nil {
		return err
	}
	repo, err := repository.Open(*dir)
	if err != nil {
		return err
	}
	tr, err := repo.Load(*name)
	if err != nil {
		return err
	}
	var db *host.DB
	if *dbPath != "" {
		if db, err = host.LoadDB(*dbPath); err != nil {
			return err
		}
	}
	cfg := experiments.DefaultConfig()
	cfg.Workers = *workers

	// Each load level replays on its own fresh array: fan the levels
	// across the worker pool, then print and persist in input order.
	type cell struct {
		res     *replay.Result
		samples []powersim.Sample
		watts   float64
		eff     metrics.Efficiency
	}
	cells, err := parsweep.Map(context.Background(),
		parsweep.Options{
			Workers: cfg.Workers,
			Label:   func(i int) string { return fmt.Sprintf("load %v", loads[i]) },
		},
		len(loads),
		func(i int) (cell, error) {
			e, a, err := experiments.NewSystem(cfg, kind)
			if err != nil {
				return cell{}, err
			}
			res, err := replay.ReplayAtLoad(e, a, tr, loads[i], replay.Options{})
			if err != nil {
				return cell{}, err
			}
			meter := powersim.DefaultMeter(a.PowerSource())
			samples := meter.Measure(res.Start, res.End)
			watts := powersim.MeanWatts(samples)
			return cell{
				res:     res,
				samples: samples,
				watts:   watts,
				eff:     metrics.NewEfficiency(res.IOPS, res.MBPS, watts, powersim.EnergyJ(samples)),
			}, nil
		})
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "load%\tIOPS\tMBPS\tresp(ms)\twatts\tIOPS/W\tMBPS/kW")
	for i, load := range loads {
		res, samples, watts, eff := cells[i].res, cells[i].samples, cells[i].watts, cells[i].eff
		fmt.Fprintf(out, "%.0f\t%.1f\t%.3f\t%.2f\t%.1f\t%.3f\t%.2f\n",
			load*100, res.IOPS, res.MBPS, res.MeanResponse.Seconds()*1000, watts, eff.IOPSPerWatt, eff.MBPSPerKW)
		if db != nil {
			var volts, amps float64
			if len(samples) > 0 {
				volts = samples[0].Volts
				amps = watts / volts
			}
			db.Insert(host.Record{
				Device:    kind.String(),
				TraceName: *name,
				Mode:      host.ModeVector{LoadProportion: load},
				Power:     host.PowerData{MeanWatts: watts, MeanVolts: volts, MeanAmps: amps, EnergyJ: eff.EnergyJ, Samples: len(samples)},
				Perf: host.PerfData{
					IOPS: res.IOPS, MBPS: res.MBPS,
					MeanResponseMs: res.MeanResponse.Seconds() * 1000,
					MaxResponseMs:  res.MaxResponse.Seconds() * 1000,
					DurationS:      res.Duration().Seconds(), IOs: res.Completed,
				},
				Efficiency: host.EfficiencyData{IOPSPerWatt: eff.IOPSPerWatt, MBPSPerKW: eff.MBPSPerKW},
			})
		}
	}
	if db != nil {
		if err := db.Save(*dbPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "saved %d records to %s\n", db.Len(), *dbPath)
	}
	return nil
}

// cmdQuery lists stored records.
func cmdQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dbPath := fs.String("db", "results.json", "results database file")
	device := fs.String("device", "", "filter by device")
	minLoad := fs.Float64("minload", 0, "minimum load proportion")
	maxLoad := fs.Float64("maxload", 0, "maximum load proportion (0 = unbounded)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := host.LoadDB(*dbPath)
	if err != nil {
		return err
	}
	recs := db.Select(host.Query{Device: *device, MinLoad: *minLoad, MaxLoad: *maxLoad})
	if len(recs) == 0 {
		fmt.Fprintln(out, "(no records)")
		return nil
	}
	fmt.Fprintln(out, "id\ttime\tdevice\ttrace\tload%\tIOPS\tMBPS\twatts\tIOPS/W\tMBPS/kW")
	for _, r := range recs {
		fmt.Fprintf(out, "%d\t%s\t%s\t%s\t%.0f\t%.1f\t%.3f\t%.1f\t%.3f\t%.2f\n",
			r.ID, r.TestTime.Format("2006-01-02 15:04:05"), r.Device, r.TraceName,
			r.Mode.LoadProportion*100, r.Perf.IOPS, r.Perf.MBPS,
			r.Power.MeanWatts, r.Efficiency.IOPSPerWatt, r.Efficiency.MBPSPerKW)
	}
	return nil
}

// cmdConvert transforms SRT traces to the replay format.
func cmdConvert(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input .srt file")
	outPath := fs.String("out", "", "output .replay file")
	srcDev := fs.String("srcdev", "", "filter records to one source device")
	window := fs.Duration("window", 100_000, "bunch coalescing window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *outPath == "" {
		return fmt.Errorf("convert: -in and -out are required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := srt.ConvertStream(f, srt.ConvertOptions{Device: *srcDev, BunchWindow: simtime.FromStd(*window)})
	if err != nil {
		return err
	}
	if err := blktrace.WriteFile(*outPath, tr); err != nil {
		return err
	}
	st := blktrace.ComputeStats(tr)
	fmt.Fprintf(out, "converted %s -> %s: %d IOs in %d bunches over %.3fs\n",
		*in, *outPath, st.IOs, st.Bunches, st.Duration.Seconds())
	return nil
}
