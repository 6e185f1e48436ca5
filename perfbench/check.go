package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"

	"repro/internal/check"
)

// expectedJSON holds the committed simulated summaries, keyed by
// workload and then by seed.  They are the model's own earlier output,
// not measurements of hardware; see README.md.
//
//go:embed expected.json
var expectedJSON []byte

type expectedTable map[string]map[string][]summaryRow

// parseExpected decodes an expected-summary file.
func parseExpected(blob []byte) (expectedTable, error) {
	t := expectedTable{}
	if err := json.Unmarshal(blob, &t); err != nil {
		return nil, fmt.Errorf("expected summaries: %w", err)
	}
	return t, nil
}

// compareRows diffs a summary against the expected one: integers and
// strings exactly, floats within check.DefaultTol relative.
func compareRows(want, got []summaryRow) []string {
	if len(want) != len(got) {
		return []string{fmt.Sprintf("%d rows, want %d", len(got), len(want))}
	}
	var diffs []string
	for i := range want {
		w, g := reflect.ValueOf(want[i]), reflect.ValueOf(got[i])
		for f := 0; f < w.NumField(); f++ {
			name := w.Type().Field(f).Tag.Get("json")
			wv, gv := w.Field(f), g.Field(f)
			ok := true
			switch wv.Kind() {
			case reflect.Float64:
				a, b := wv.Float(), gv.Float()
				ok = a == b || math.Abs(a-b) <= check.DefaultTol*math.Max(math.Abs(a), math.Abs(b))
			default:
				ok = wv.Interface() == gv.Interface()
			}
			if !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s = %v, want %v", want[i].Name, name, gv.Interface(), wv.Interface()))
			}
		}
	}
	return diffs
}

// expectedPath is where -update writes, relative to the repository
// root the benchmark runs from.
const expectedPath = "perfbench/expected.json"

// writeExpected merges summaries into the expected file.
func writeExpected(workload string, seed uint64, rows []summaryRow) error {
	t := expectedTable{}
	if blob, err := os.ReadFile(expectedPath); err == nil {
		if t, err = parseExpected(blob); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	if t[workload] == nil {
		t[workload] = map[string][]summaryRow{}
	}
	t[workload][strconv.FormatUint(seed, 10)] = rows
	blob, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(blob, '\n'), 0o644)
}
