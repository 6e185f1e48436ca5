package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/check"
)

// gateArgs carries the verify flags every gate reads.
type gateArgs struct {
	root string // the -golden corpus root
	opts check.VerifyOptions
	seed uint64
}

// verifyGates lists the conformance gates in the order `-gate all` runs
// them.  Each reads its corpus from subdir under the -golden root.
var verifyGates = []struct {
	name, subdir string
	verify       func(dir string, a gateArgs, out io.Writer) error
	verified     string // printed after a clean diff (never under -update)
}{
	{"golden", "", func(dir string, a gateArgs, out io.Writer) error {
		return check.VerifyGolden(dir, a.opts, out)
	}, "golden corpus verified"},
	{"fidelity", "", func(dir string, a gateArgs, out io.Writer) error {
		return check.VerifyFidelity(dir, a.seed, a.opts.Tol, out)
	}, "workload round-trip fidelity verified"},
	{"optimize", "optimize", func(dir string, a gateArgs, out io.Writer) error {
		return check.VerifyOptimize(dir, a.opts, out)
	}, "optimize corpus verified (search deterministic at workers 1/2/8, winners beat paper defaults)"},
	{"cache", "cache", func(dir string, a gateArgs, out io.Writer) error {
		return check.VerifyCache(dir, a.root, a.opts, out)
	}, "cache corpus verified (study deterministic at workers 1/2/8, zero-capacity tier byte-identical, DRAM tier beats uncached)"},
	{"slo", "slo", func(dir string, a gateArgs, out io.Writer) error {
		return check.VerifySLO(dir, a.opts, out)
	}, "slo corpus verified (rebuild storm fires and resolves, alerts byte-identical at workers 1/2/8, scrape agrees with summary.json)"},
}

// selectGates parses a -gate value: gate names or "all", comma
// separated.  The selection runs in verifyGates order.
func selectGates(spec string) (map[string]bool, error) {
	var names []string
	for _, g := range verifyGates {
		names = append(names, g.name)
	}
	sel := map[string]bool{}
	for _, s := range strings.Split(spec, ",") {
		s = strings.TrimSpace(s)
		switch {
		case s == "all":
			for _, n := range names {
				sel[n] = true
			}
		case slices.Contains(names, s):
			sel[s] = true
		default:
			return nil, fmt.Errorf("verify: unknown gate %q (valid: %s, all)", s, strings.Join(names, ", "))
		}
	}
	return sel, nil
}

// cmdVerify runs the conformance gates against the committed corpus:
//
//   - golden replays every fixture trace on both simulated arrays with
//     the physics-invariant suite armed and diffs the committed JSON;
//   - fidelity round-trips every fixture through the workload
//     characterizer (analyze → synthesize → replay both) and requires
//     the efficiency metrics to agree;
//   - optimize, cache and slo are the determinism gates (byte-identical
//     output at workers 1/2/8) of the policy search, the writeback tier
//     and the rebuild-storm burn-rate alerts, each diffed against its
//     committed goldens.
//
// -update regenerates the goldens after an intentional model change.
// Every selected gate runs even when an earlier one fails.
func cmdVerify(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	root := fs.String("golden", "internal/check/testdata/golden", "conformance corpus root (each gate reads its own subdirectory)")
	gate := fs.String("gate", "golden", "gates to run, comma separated: golden, fidelity, optimize, cache, slo or all")
	update := fs.Bool("update", false, "regenerate the golden outputs instead of diffing")
	tol := fs.Float64("tol", 0, "relative tolerance for comparison (0 = gate default)")
	seed := fs.Uint64("seed", 1, "fidelity synthesis seed")
	telemetryDir := fs.String("telemetry-dir", "", "export each failing gate's artifacts (telemetry, decision ledgers, alert streams) into DIR/<gate>")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sel, err := selectGates(*gate)
	if err != nil {
		return err
	}
	if *update && sel["fidelity"] {
		return fmt.Errorf("verify: the fidelity gate has no goldens to -update")
	}
	var errs []error
	for _, g := range verifyGates {
		if !sel[g.name] {
			continue
		}
		a := gateArgs{root: *root, seed: *seed, opts: check.VerifyOptions{Update: *update, Tol: *tol}}
		if *telemetryDir != "" {
			a.opts.TelemetryDir = filepath.Join(*telemetryDir, g.name)
		}
		if err := g.verify(filepath.Join(*root, g.subdir), a, out); err != nil {
			errs = append(errs, err)
			continue
		}
		if !*update {
			fmt.Fprintln(out, g.verified)
		}
	}
	return errors.Join(errs...)
}
