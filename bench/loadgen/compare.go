package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of -compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// compareMetric judges side b against side a for one metric. runA and
// runB are the runs' reported figures; a and b are the per-slice values
// behind them. worse is how far b's figure is on the wrong side of a's,
// as a share of a's (negative: b is better).
//
// Within the bound is ok, beyond it regressed -- but only when the
// slices resolve the bound. When either side's own slice-to-slice range
// is wider than the bound the figures cannot carry the verdict: it is ok
// only if every slice of b beats every slice of a, regressed only if the
// sides do not overlap at all, and unresolved otherwise.
func compareMetric(d metricDef, runA, runB float64, a, b []float64) (worse float64, verdict string) {
	if runA == 0 || len(a) == 0 || len(b) == 0 {
		return 0, verdictUnresolved
	}
	sign := 1.0 // lower is better: worse means b is larger
	if d.higher {
		sign = -1
	}
	worse = sign * (runB - runA) / runA
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	spread := max((maxA-minA)/runA, (maxB-minB)/runB)
	bBeatsA, aBeatsB := maxB < minA, maxA < minB
	if d.higher {
		bBeatsA, aBeatsB = minB > maxA, minA > maxB
	}
	switch {
	case spread <= d.bound && worse <= d.bound:
		verdict = verdictOK
	case spread <= d.bound:
		verdict = verdictRegressed
	case bBeatsA:
		verdict = verdictOK
	case aBeatsB && worse > d.bound:
		verdict = verdictRegressed
	default:
		verdict = verdictUnresolved
	}
	return worse, verdict
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func readResult(path string) (*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}

// compareFiles prints, per workload and end-to-end metric, both runs'
// figures, the delta, the bound and the verdict. It exits 1 when any row
// regressed, 0 otherwise (unresolved rows are reported, not failed).
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sides [2]*runResult
	for i, path := range []string{pathA, pathB} {
		res, err := readResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 2
		}
		sides[i] = res
	}
	return compareResults(w, sides[0], sides[1])
}

func compareResults(w io.Writer, a, b *runResult) int {
	var names []string
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	regressed := 0
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		for _, d := range endToEnd {
			worse, verdict := compareMetric(d, wa.Run[d.name], wb.Run[d.name], wa.column(d.name), wb.column(d.name))
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g %+8.2f%% %6.1f%%  %s\n", n, d.name, wa.Run[d.name], wb.Run[d.name], 100*worse, 100*d.bound, verdict)
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
