// Round-trip fidelity: profile a trace, synthesize a new trace from
// the profile, replay both on the golden arrays with the invariant
// suite armed, and require the efficiency metrics to agree.  This is
// the conformance gate for the workload characterization subsystem —
// a synthesized "equivalent" workload must be equivalent where it
// counts: IOPS, MBPS, IOPS/Watt and MBPS/Kilowatt.
package check

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/blktrace"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// DefaultFidelityTol is the relative tolerance for round-trip metric
// agreement.  The synthesizer quota-samples sizes and mix and pins the
// arrival horizon, so the residual error is placement and burst-order
// noise; 10% bounds it across the golden corpus with margin.
const DefaultFidelityTol = 0.10

// FidelityCell compares one metric between the original trace's replay
// and the synthesized trace's replay, in the LP/A form of Section V-B:
// LP is the synthetic-over-original load proportion and Err is
// |A(f,f')-1| against the configured proportion of 1.
type FidelityCell struct {
	Metric    string
	Original  float64
	Synthetic float64
	Err       float64
}

// FidelityResult is the round-trip outcome for one trace on one array.
type FidelityResult struct {
	// Name labels the source trace; Kind is the array replayed on.
	Name string
	Kind experiments.ArrayKind
	// Cells compares IOPS, MBPS, IOPS/Watt and MBPS/kW.
	Cells []FidelityCell
	// Tol is the tolerance the cells were judged against.
	Tol float64
}

// Err returns nil when every metric agrees within tolerance, or one
// error listing the offenders (invariant violations surface earlier,
// from RoundTripFidelity itself).
func (r *FidelityResult) Err() error {
	var bad []string
	for _, c := range r.Cells {
		if c.Err > r.Tol {
			bad = append(bad, fmt.Sprintf("%s: original %.3f, synthetic %.3f (err %.1f%% > %.0f%%)",
				c.Metric, c.Original, c.Synthetic, c.Err*100, r.Tol*100))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("fidelity %s on %s:\n  %s", r.Name, r.Kind, strings.Join(bad, "\n  "))
}

// fidelityCell derives the LP/A comparison for one metric: the measured
// load proportion of synthetic over original against a configured
// proportion of 1.
func fidelityCell(metric string, orig, syn float64) FidelityCell {
	lp := metrics.LoadProportion(orig, syn)
	return FidelityCell{
		Metric:    metric,
		Original:  orig,
		Synthetic: syn,
		Err:       metrics.ErrorRate(metrics.Accuracy(lp, 1)),
	}
}

// RoundTripFidelity profiles the trace, synthesizes a derived trace
// under the seed, replays both on a fresh array of the given kind with
// the full invariant suite armed, and compares the four efficiency
// metrics.  Setup failures and invariant violations (on either replay)
// return an error; metric disagreement is reported via Result.Err so
// callers can render the cells.
func RoundTripFidelity(trace *blktrace.Trace, name string, kind experiments.ArrayKind, seed uint64, tol float64) (*FidelityResult, error) {
	if tol <= 0 {
		tol = DefaultFidelityTol
	}
	profile, err := workload.Analyze(trace, name)
	if err != nil {
		return nil, err
	}
	syn, err := workload.Synthesize(profile, workload.SynthOptions{Seed: seed, ReadRatio: -1})
	if err != nil {
		return nil, err
	}
	replayOne := func(t *blktrace.Trace, label string) (*Result, error) {
		engine, array, err := experiments.NewSystem(experiments.DefaultConfig(), kind)
		if err != nil {
			return nil, err
		}
		res, err := ReplayChecked(engine, array, t, Options{})
		if err != nil {
			return nil, fmt.Errorf("fidelity %s (%s): %w", name, label, err)
		}
		if err := res.Report.Err(); err != nil {
			return nil, fmt.Errorf("fidelity %s (%s): %w", name, label, err)
		}
		return res, nil
	}
	orig, err := replayOne(trace, "original")
	if err != nil {
		return nil, err
	}
	derived, err := replayOne(syn, "synthesized")
	if err != nil {
		return nil, err
	}
	oe := metrics.NewEfficiency(orig.Replay.IOPS, orig.Replay.MBPS, orig.MeanWatts, orig.EnergyJ)
	se := metrics.NewEfficiency(derived.Replay.IOPS, derived.Replay.MBPS, derived.MeanWatts, derived.EnergyJ)
	return &FidelityResult{
		Name: name,
		Kind: kind,
		Tol:  tol,
		Cells: []FidelityCell{
			fidelityCell("iops", oe.IOPS, se.IOPS),
			fidelityCell("mbps", oe.MBPS, se.MBPS),
			fidelityCell("iops_per_watt", oe.IOPSPerWatt, se.IOPSPerWatt),
			fidelityCell("mbps_per_kw", oe.MBPSPerKW, se.MBPSPerKW),
		},
	}, nil
}

// VerifyFidelity runs the round trip for every *.trace.txt fixture
// under dir on the golden HDD array, printing one PASS/FAIL line per
// fixture (with per-metric detail on failure) to out.  A fixture that
// fails to load or replay is tallied like a metric disagreement and the
// pass moves on; the returned error is non-nil when any fixture fails
// or the corpus is empty.
func VerifyFidelity(dir string, seed uint64, tol float64, out io.Writer) error {
	return fixtureGate[*FidelityResult]{
		label: "fidelity",
		build: func(name string, trace *blktrace.Trace) (*FidelityResult, error) {
			res, err := RoundTripFidelity(trace, name, experiments.HDDArray, seed, tol)
			if err != nil {
				return nil, err
			}
			return res, res.Err()
		},
		summary: func(res *FidelityResult) string {
			var worst float64
			for _, c := range res.Cells {
				worst = max(worst, c.Err)
			}
			return fmt.Sprintf("worst metric err %.2f%%", worst*100)
		},
	}.verify(dir, VerifyOptions{}, out)
}
