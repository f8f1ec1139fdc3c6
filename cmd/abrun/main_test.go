package main

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// seq is n runs from start, step apart.
func seq(start, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = start + float64(i)*step
	}
	return xs
}

func shift(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x + by
	}
	return out
}

func judged(better string, a, b []float64, failed [2]int) row {
	r := row{Better: better, Bound: 0.25, Failed: failed, Runs: [2][]float64{a, b}}
	judge(&r)
	return r
}

func TestVerdict(t *testing.T) {
	a := seq(100, 1, 10) // median 104.5, quartiles 102.25 and 106.75
	eightOfTen := append(shift(a[:8], -20), shift(a[8:], 1)...)
	for _, tc := range []struct {
		name, better string
		a, b         []float64
		failed       [2]int
		want         string
	}{
		{"10/10 wins by more than the IQR is a gain", "lower", a, shift(a, -20), [2]int{}, "gain"},
		{"8/10 wins with a wide gap is not a gain", "lower", a, eightOfTen, [2]int{}, "flat"},
		{"10/10 wins inside the parent's IQR is not a gain", "lower", a, shift(a, -1), [2]int{}, "flat"},
		{"more failed operations void a gain", "lower", a, shift(a, -20), [2]int{0, 1}, "flat"},
		{"worse than the bound is a regression", "lower", a, shift(a, 30), [2]int{}, "regression"},
		{"worse inside the bound is flat", "lower", a, shift(a, 20), [2]int{}, "flat"},
		{"higher is better: the same drop is a regression", "higher", a, shift(a, -30), [2]int{}, "regression"},
		{"higher is better: a rise is a gain", "higher", a, shift(a, 20), [2]int{}, "gain"},
		// Quartiles 10 and 100 around a median of 55: wider than 25 %.
		{"a parent spread wider than the bound is unresolved", "lower", []float64{10, 10, 10, 10, 50, 60, 100, 100, 100, 100}, seq(40, 5, 10), [2]int{}, "unresolved"},
		{"unless every change run reads better", "lower", []float64{10, 10, 10, 10, 50, 60, 100, 100, 100, 100}, seq(1, 0.5, 10), [2]int{}, "flat"},
	} {
		if got := judged(tc.better, tc.a, tc.b, tc.failed); got.Verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, A %v [%v, %v], B %v), want %q",
				tc.name, got.Verdict, got.Wins, got.Pairs, got.AMedian, got.AQ1, got.AQ3, got.BMedian, tc.want)
		}
	}
}

func TestQuartilesAndSignTest(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		// h = p(n-1): 2.25 lies a quarter of the way from 3 to 4.
		{seq(1, 1, 10), 0.25, 3.25},
		{seq(1, 1, 10), 0.5, 5.5},
		{seq(1, 1, 10), 0.75, 7.75},
		{[]float64{10, 20, 30, 40, 50}, 0.25, 20},
		{[]float64{10, 20, 30, 40, 50}, 1, 50},
		{[]float64{7}, 0.75, 7},
	} {
		if got := quantile(tc.xs, tc.p); got != tc.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}

	// Pairs (1,0) (2,2) (3,5) (4,3): B is lower in two, higher in one,
	// tied in one, and a tie counts for neither side.
	a, b := []float64{1, 2, 3, 4}, []float64{0, 2, 5, 3}
	if r := judged("lower", a, b, [2]int{}); r.Wins != 2 || r.Pairs != 4 {
		t.Errorf("lower is better: wins %d/%d, want 2/4", r.Wins, r.Pairs)
	}
	if r := judged("higher", a, b, [2]int{}); r.Wins != 1 {
		t.Errorf("higher is better: wins %d, want 1", r.Wins)
	}
	r := judged("lower", []float64{4, 1, 3, 2}, []float64{9, 9, 8, 8}, [2]int{})
	if r.AMedian != 2.5 || r.AQ1 != 1.75 || r.AQ3 != 3.25 || r.BMedian != 8.5 {
		t.Errorf("A %v [%v, %v], B %v; want 2.5 [1.75, 3.25], 8.5 from unsorted runs", r.AMedian, r.AQ1, r.AQ3, r.BMedian)
	}
}

// contractOutput is the end of the stdout of `bash bench/run.sh
// --workload hit_replay --seed 1 --seconds 2`: the report's last rows,
// then the contract line.
const contractOutput = `mvpearsd.boot_ms                    9.77869 ms
server.cached_share                       1 
server.dup_double_runs                    0 count
{"correct":true,"attempted":12556,"failed":0,"metrics":{"cpu_ms_per_req":{"value":0.12352967421408598,"unit":"ms"},"latency_p50_ms":{"value":0.2404616,"unit":"ms"},"rss_peak_mb":{"value":16.5078125,"unit":"MB"},"setup_s":{"value":0.1922774532,"unit":"s"},"slo_share":{"value":0.9997682502896872,"unit":"ratio"},"throughput_rps":{"value":6640.923625107039,"unit":"ops/s"}}}
`

func TestParseContract(t *testing.T) {
	c, err := parseContract([]byte(contractOutput))
	if err != nil {
		t.Fatal(err)
	}
	if c.Failed != 0 || len(c.Metrics) != 6 || c.Metrics["rss_peak_mb"].Value != 16.5078125 || c.Metrics["setup_s"].Value != 0.1922774532 {
		t.Fatalf("contract = %+v", c)
	}
	c, err = parseContract([]byte(`{"correct":false,"attempted":9,"failed":3,"metrics":{"slo_share":{"value":0.5,"unit":"ratio"}}}`))
	if err != nil || c.Failed != 3 {
		t.Fatalf("failed run: %+v, %v", c, err)
	}
	for _, out := range []string{"", "FAILED miss_full seed 1 index 4 (http): EOF\n", `{"correct":true,"metrics":{}}`, contractOutput + "trailing\n"} {
		if _, err := parseContract([]byte(out)); err == nil {
			t.Errorf("parseContract(%q) accepted", out)
		}
	}
}

func TestParseLine(t *testing.T) {
	name, m, ok := parseLine("BenchmarkServeHit-4   	  123456	      9118 ns/op	    8080 B/op	      53 allocs/op")
	if !ok || name != "BenchmarkServeHit" || m["ns/op"] != 9118 || m["B/op"] != 8080 || m["allocs/op"] != 53 || len(m) != 3 {
		t.Fatalf("parse = (%q, %v, ok=%v)", name, m, ok)
	}

	// Custom metrics (b.ReportMetric) ride along as their own units; a
	// name without the -N suffix parses too.
	name, m, ok = parseLine("BenchmarkStreamWindow 	     100	 1148192 ns/op	   1037727 median-ns/window	  250888 B/op	     170 allocs/op")
	if !ok || name != "BenchmarkStreamWindow" || m["median-ns/window"] != 1037727 {
		t.Fatalf("parse = (%q, %v, ok=%v)", name, m, ok)
	}
	if name, _, ok = parseLine("BenchmarkCacheEntry/cascaded-2   1   3.1e+07 ns/op   472.5 B/entry"); !ok || name != "BenchmarkCacheEntry/cascaded" {
		t.Fatalf("sub-benchmark parsed as (%q, ok=%v)", name, ok)
	}

	for _, line := range []string{
		"goos: linux",
		"pkg: mvpears/internal/server",
		"PASS",
		"ok  	mvpears/internal/server	10.611s",
		"",
		"--- BENCH: BenchmarkX",
		"BenchmarkBroken-4   notanumber   12 ns/op",
		"BenchmarkNoTime-4   10   12 B/op",
		"BenchmarkOdd-4   10   12 ns/op   7",
		"BenchmarkBadValue-4   10   x ns/op",
	} {
		if name, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted as %q", line, name)
		}
	}
}

// gitIn runs git in dir and returns its stdout.
func gitIn(t *testing.T, dir string, args ...string) string {
	t.Helper()
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("git %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestCancelRemovesWorktrees: a run cancelled in the middle of its first
// pair stops the child with its own children (the stand-in's sleep) and
// still removes both worktrees. The stand-in
// bench/run.sh reports whether its tree was seeded with the checkout's Go
// build cache, which happens only when the checkout has one.
func TestCancelRemovesWorktrees(t *testing.T) {
	for _, cached := range []bool{true, false} {
		repo, mark := t.TempDir(), filepath.Join(t.TempDir(), "started")
		t.Setenv("TMPDIR", t.TempDir())
		t.Setenv("ABRUN_TEST_MARK", mark)
		write := func(name, body string) {
			t.Helper()
			path := filepath.Join(repo, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		gitIn(t, repo, "init", "-q")
		write("BENCHMARK.json", `{"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [{"name": "throughput_rps", "better": "higher", "bound": 0.25}]}`)
		write("bench/run.sh", `if [ -e .bench_build/gocache/entry ]; then s=seeded; else s=cold; fi
echo "$s" > "$ABRUN_TEST_MARK.tmp" && mv "$ABRUN_TEST_MARK.tmp" "$ABRUN_TEST_MARK"
sleep 60
`)
		write(".gitignore", ".bench_build/\n")
		for i := 0; i < 2; i++ {
			gitIn(t, repo, "add", "-A")
			gitIn(t, repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "--allow-empty", "-m", "c")
		}
		write(".bench_build/model/model.gob", "m")
		if cached {
			write(".bench_build/gocache/entry", "c")
		}
		wd, err := os.Getwd()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Chdir(repo); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { os.Chdir(wd) })

		// The poller cancels run once the tree's stand-in run has written
		// its mark, and hands the mark back over seen; the test cancels and
		// joins it before reading, so it never outlives its iteration.
		ctx, cancel := context.WithCancel(context.Background())
		seen := make(chan []byte, 1)
		go func() {
			defer close(seen)
			defer cancel()
			for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline) && ctx.Err() == nil; time.Sleep(10 * time.Millisecond) {
				if b, err := os.ReadFile(mark); err == nil {
					seen <- b
					return
				}
			}
		}()
		start := time.Now()
		err = run(ctx, [2]string{"HEAD~1", "HEAD"}, 2, "", "", ".", filepath.Join(repo, "out.json"))
		cancel()
		state := <-seen
		if err == nil {
			t.Fatal("a cancelled run returned no error")
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancelled run took %v: the child's process group was not stopped", elapsed)
		}
		if want := map[bool]string{true: "seeded\n", false: "cold\n"}[cached]; string(state) != want {
			t.Errorf("checkout cache %v: the tree's run saw %q, want %q", cached, state, want)
		}
		if trees := strings.Count(gitIn(t, repo, "worktree", "list", "--porcelain"), "worktree "); trees != 1 {
			t.Errorf("git worktree list names %d trees after a cancelled run, want only the main tree:\n%s",
				trees, gitIn(t, repo, "worktree", "list"))
		}
	}
}
