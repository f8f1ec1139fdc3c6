// abrun measures a change B against its parent A in N order-alternated
// pairs (A first on odd pairs) and appends one judged row per metric to
// BENCH_ab.json; DESIGN.md §7 describes the protocol. A and B are git
// refs, each checked out into a temporary git worktree, or "." for the
// working checkout. Pair i runs `bash bench/run.sh --workload W --seed i
// --seconds S` (S: BENCHMARK.json's run_seconds) in both trees or, with
// -bench, both trees' `go test -c` binaries. On SIGINT or SIGTERM the
// running child is stopped and both worktrees are removed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// row is one metric of one workload or go benchmark over all pairs, A's
// runs first. Name, Unit, Better and Bound are its end_to_end entry in
// BENCHMARK.json, abrun's only source of directions and bounds.
type row struct {
	A, B, Workload, Name, Unit, Better string
	Bound                              float64
	Pairs, Wins                        int
	Failed                             [2]int // failed operations, summed over the runs
	AMedian, AQ1, AQ3, BMedian         float64
	Verdict                            string
	Runs                               [2][]float64
}

func main() {
	pairs := flag.Int("pairs", 10, "order-alternated pairs to run")
	workload := flag.String("workload", "", "workload to run (default: every workload in BENCHMARK.json)")
	bench := flag.String("bench", "", "go benchmark regexp: compare `go test -c` binaries of -pkg instead of workloads")
	pkg := flag.String("pkg", ".", "package of -bench")
	out := flag.String("out", "BENCH_ab.json", "record the rows are appended to")
	flag.Parse()
	if flag.NArg() != 2 || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: abrun [-pairs N] [-workload W | -bench RE -pkg P] [-out FILE] A B")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, [2]string{flag.Arg(0), flag.Arg(1)}, *pairs, *workload, *bench, *pkg, *out)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abrun:", err)
		os.Exit(1)
	}
}

// run measures refs and appends the judged rows to out. Cancelling ctx
// stops the running child; the worktrees are removed either way.
func run(ctx context.Context, refs [2]string, pairs int, workload, bench, pkg, out string) error {
	var sp struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []row `json:"end_to_end"`
	}
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	if err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	defs := map[string]row{}
	for _, d := range sp.EndToEnd {
		defs[d.Name] = d
	}
	tmp, err := os.MkdirTemp("", "abrun-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	trees, ids, bins := [2]string{".", "."}, [2]string{".", "."}, [2]string{}
	for side, ref := range refs {
		if ref != "." {
			sha, err := output(ctx, "", "git", "rev-parse", "--short", ref+"^{commit}")
			ids[side], trees[side] = strings.TrimSpace(string(sha)), filepath.Join(tmp, fmt.Sprint(side))
			if err == nil {
				_, err = output(ctx, "", "git", "worktree", "add", "--detach", trees[side], ids[side])
			}
			if err != nil {
				return err
			}
			defer output(context.WithoutCancel(ctx), "", "git", "worktree", "remove", "--force", trees[side])
		}
		bins[side] = filepath.Join(tmp, fmt.Sprint(side, ".test"))
		if bench != "" {
			_, err = output(ctx, trees[side], "go", "test", "-c", "-o", bins[side], pkg)
		} else if ref != "." {
			// Workload runs share the working checkout's model cache: a
			// tree's own trained artifact and AEs shift miss_full and
			// mix_open. They start from its Go build cache too, when it
			// has one, instead of compiling everything cold.
			_, err = output(ctx, "", "cp", "-R", "--parents", ".bench_build/model", trees[side])
			if _, statErr := os.Stat(".bench_build/gocache"); err == nil && statErr == nil {
				_, err = output(ctx, "", "cp", "-R", "--parents", ".bench_build/gocache", trees[side])
			}
		}
		if err != nil {
			return err
		}
	}

	data := map[[2]string]*row{}
	add := func(side int, workload string, def row, v float64, failed int) {
		r := data[[2]string{workload, def.Name}]
		if r == nil {
			def.A, def.B, def.Workload = ids[0], ids[1], workload
			r = &def
			data[[2]string{workload, def.Name}] = r
		}
		r.Runs[side] = append(r.Runs[side], v)
		r.Failed[side] += failed
	}
	var measure func(side, seed int) error
	if bench != "" {
		// A go benchmark's costs per op (ns/op, B/op, allocs/op, custom
		// units) are judged as cpu_ms_per_req is; a rate (MB/s) restates
		// ns/op and is left out.
		cost := defs["cpu_ms_per_req"]
		measure = func(side, _ int) error {
			out, err := output(ctx, filepath.Join(trees[side], pkg), bins[side], "-test.run", "^$", "-test.bench", bench, "-test.benchmem", "-test.timeout", "30m")
			for _, line := range strings.Split(string(out), "\n") {
				if name, metrics, ok := parseLine(line); ok {
					for unit, v := range metrics {
						if !strings.HasSuffix(unit, "/s") {
							add(side, filepath.Join(pkg, name), row{Name: unit, Unit: unit, Better: cost.Better, Bound: cost.Bound}, v, 0)
						}
					}
				}
			}
			return err
		}
	} else {
		var names []string
		for _, w := range sp.Workloads {
			if workload == "" || workload == w.Name {
				names = append(names, w.Name)
			}
		}
		measure = func(side, seed int) error {
			for _, w := range names {
				// A run with failed operations exits non-zero but still
				// ends with its contract line, which counts them.
				stdout, runErr := output(ctx, trees[side], "bash", "bench/run.sh", "--workload", w, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(sp.RunSeconds))
				c, err := parseContract(stdout)
				if err != nil {
					return fmt.Errorf("%s: %v (%v)", w, err, runErr)
				}
				for m, v := range c.Metrics {
					if def, ok := defs[m]; ok {
						add(side, w, def, v.Value, c.Failed)
					}
				}
			}
			return nil
		}
	}

	for i := 1; i <= pairs; i++ {
		for _, side := range [2][2]int{{1, 0}, {0, 1}}[i%2] {
			if err := measure(side, i); err != nil {
				return fmt.Errorf("pair %d, %s: %w", i, refs[side], err)
			}
		}
		fmt.Fprintf(os.Stderr, "abrun: pair %d/%d done\n", i, pairs)
	}
	var rows []row
	for _, r := range data {
		if len(r.Runs[0]) != pairs || len(r.Runs[1]) != pairs {
			return fmt.Errorf("%s %s was not measured in every run", r.Workload, r.Name)
		}
		judge(r)
		rows = append(rows, *r)
	}
	if len(rows) == 0 {
		return fmt.Errorf("nothing was measured")
	}
	slices.SortFunc(rows, func(x, y row) int {
		return strings.Compare(x.Workload+"\x00"+x.Name, y.Workload+"\x00"+y.Name)
	})
	for _, r := range rows {
		fmt.Printf("%-28s %-16s A %10.5g [%.5g, %.5g]  B %10.5g  wins %2d/%d  failed %d/%d  %s\n",
			r.Workload, r.Name, r.AMedian, r.AQ1, r.AQ3, r.BMedian, r.Wins, r.Pairs, r.Failed[0], r.Failed[1], r.Verdict)
	}
	var all []row
	if old, err := os.ReadFile(out); err == nil && json.Unmarshal(old, &all) != nil {
		return fmt.Errorf("%s is not a list of rows", out)
	}
	if b, err = json.Marshal(append(all, rows...)); err != nil {
		return err
	}
	return os.WriteFile(out, append(bytes.ReplaceAll(b, []byte("},{"), []byte("},\n{")), '\n'), 0o644)
}

// output runs name in dir and returns its stdout; stderr passes through.
// The child leads its own process group, and cancelling ctx sends the
// group SIGTERM, on which bench/run.sh's load generator stops its daemon.
func output(ctx context.Context, dir, name string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	out, err := cmd.Output()
	if err != nil {
		err = fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return out, err
}

// parseContract reads the contract line bench/run.sh ends its stdout with.
func parseContract(stdout []byte) (c struct {
	Failed  int
	Metrics map[string]struct{ Value float64 }
}, err error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if err = json.Unmarshal([]byte(lines[len(lines)-1]), &c); err == nil && len(c.Metrics) == 0 {
		err = fmt.Errorf("no metrics")
	}
	return c, err
}

// benchLine matches one `go test -bench` result line, without the -N
// GOMAXPROCS suffix of its name:
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   1 allocs/op   7.0 extra/unit
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseLine decodes one benchmark result line into its value per unit;
// ok is false for anything else (headers, PASS, ok).
func parseLine(line string) (name string, metrics map[string]float64, ok bool) {
	m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
	if m == nil {
		return "", nil, false
	}
	f, metrics := strings.Fields(m[2]), map[string]float64{}
	for ; len(f) >= 2; f = f[2:] {
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[f[1]] = v
	}
	_, ok = metrics["ns/op"]
	return m[1], metrics, ok && len(f) == 0
}

// judge sums up r's pairs (A's median and quartiles, B's median, and the
// sign test's count of pairs B reads better in; a tie counts for neither)
// and gives the verdict of DESIGN.md §7: gain, regression, unresolved or
// flat.
func judge(r *row) {
	a, b := r.Runs[0], r.Runs[1]
	sa, sb := slices.Clone(a), slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	r.Pairs, r.Wins = len(a), 0
	r.AMedian, r.AQ1, r.AQ3, r.BMedian = quantile(sa, 0.5), quantile(sa, 0.25), quantile(sa, 0.75), quantile(sb, 0.5)
	sign := 1.0 // sign·(B − A) > 0: B reads better
	if r.Better == "lower" {
		sign = -1
	}
	for i := range a {
		if sign*(b[i]-a[i]) > 0 {
			r.Wins++
		}
	}
	gap, iqr, bound := sign*(r.BMedian-r.AMedian), r.AQ3-r.AQ1, r.Bound*math.Abs(r.AMedian)
	allBetter := min(sign*sb[0], sign*sb[len(sb)-1]) > max(sign*sa[0], sign*sa[len(sa)-1])
	switch r.Verdict = "flat"; {
	case 10*r.Wins >= 9*r.Pairs && gap > iqr && r.Failed[1] <= r.Failed[0]:
		r.Verdict = "gain"
	case -gap > bound:
		r.Verdict = "regression"
	case iqr > bound && !allBetter:
		r.Verdict = "unresolved"
	}
}

// quantile is the linearly interpolated p-quantile of sorted xs (R-7,
// numpy's default).
func quantile(sorted []float64, p float64) float64 {
	i, f := math.Modf(p * float64(len(sorted)-1))
	return sorted[int(i)] + f*(sorted[min(int(i)+1, len(sorted)-1)]-sorted[int(i)])
}
