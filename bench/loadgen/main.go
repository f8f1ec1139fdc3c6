// Command loadgen is the repository's benchmark: it boots a real
// mvpearsd, drives seeded traffic at it over loopback HTTP from this one
// process, checks every response, and prints end-to-end metrics (and,
// with -trace 1, a per-layer latency budget measured from outside).
//
//	go run ./bench/loadgen -seed 1             every workload, interleaved slices
//	go run ./bench/loadgen -seed 1 -trace 1    ... plus the per-layer run
//	go run ./bench/loadgen -short              every code path in under 30 s
//	go run ./bench/loadgen -compare A.json B.json
//	go run ./bench/loadgen -workload miss_full -seed 7 -seconds 12 -trace 0
//
// The last form is what BENCHMARK.json's command runs (through
// bench/run.sh); its final stdout line is the result object the
// benchmark contract asks for. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// slicesPerRun is how many timed slices a workload gets in a run, each
// against a freshly booted daemon (see workloadResult for how slices
// become the run's figures).
const slicesPerRun = 3

// setupSamples is how many extra set-ups (boot, prime, drain) a run
// times per workload, so that setup_s rests on seven.
const setupSamples = 4

// runResult is the result file: what -compare reads.
type runResult struct {
	Seed    int64 `json:"seed"`
	Machine struct {
		NProc       int    `json:"nproc"`
		Connections int    `json:"connections"`
		Go          string `json:"go"`
	} `json:"machine"`
	SliceSeconds float64                       `json:"slice_seconds"`
	Workloads    map[string]*workloadResult    `json:"workloads,omitempty"`
	Layers       map[string]map[string]float64 `json:"layers,omitempty"`
}

// contractLine is the last stdout line of a single-workload run.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		seed     = flag.Int64("seed", 1, "seed of the corpus, the traffic and the samples")
		name     = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all, interleaved)")
		seconds  = flag.Float64("seconds", 24, "measured seconds per workload, split over 3 slices")
		trace    = flag.Int("trace", 0, "1: the per-layer run (with -workload: instead of the timed slices; without: after them)")
		short    = flag.Bool("short", false, "one 2 s slice per workload, no trace: exercises the whole harness quickly")
		compare  = flag.Bool("compare", false, "compare two result files: loadgen -compare A.json B.json")
		work     = flag.String("work", ".bench_build", "directory for the model cache and per-run scratch")
		out      = flag.String("out", "", "directory for result.json and trace-<workload>.json (default: <work>/out)")
		daemonAt = flag.String("daemon", "", "prebuilt mvpearsd binary (default: go build ./cmd/mvpearsd)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: loadgen -compare A.json B.json")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "loadgen: unknown workload %q\n", *name)
			return 2
		}
		selected = []*workload{w}
	}
	slices, sliceDur, warmup := slicesPerRun, time.Duration(*seconds/slicesPerRun*float64(time.Second)), 500*time.Millisecond
	if *short {
		slices, sliceDur, warmup, *trace = 1, 2*time.Second, 200*time.Millisecond, 0
	}
	if *out == "" {
		*out = filepath.Join(*work, "out")
	}

	r, err := newRunner(*seed, *work, *daemonAt, warmup)
	// Children die with us: on a signal, reap them before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		r.cleanup()
		os.Exit(130)
	}()
	defer r.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	fmt.Printf("seed %d, %d connections, nproc %d, %s; fixtures %.2f s", *seed, connections, runtime.NumCPU(), runtime.Version(), r.fixtureSeconds)
	if r.bootstrapSeconds > 0 {
		fmt.Printf("; cold bootstrap %.2f s (model cache filled)", r.bootstrapSeconds)
	}
	fmt.Println()

	res := &runResult{Seed: *seed, SliceSeconds: sliceDur.Seconds()}
	res.Machine.NProc, res.Machine.Connections, res.Machine.Go = runtime.NumCPU(), connections, runtime.Version()

	if *trace == 0 || *name == "" {
		res.Workloads = map[string]*workloadResult{}
		// Slices interleave round-robin across workloads, so that slow
		// machine drift lands on every workload alike.
		for s := 0; s < slices; s++ {
			for _, w := range selected {
				sr, err := r.runSlice(w, sliceDur, false)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: %s slice %d: %v\n", w.name, s, err)
					return 1
				}
				if res.Workloads[w.name] == nil {
					res.Workloads[w.name] = &workloadResult{}
				}
				res.Workloads[w.name].add(w, sr)
			}
		}
		for i := 0; i < setupSamples; i++ {
			for _, w := range selected {
				m, err := r.setupSample(w)
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: %s set-up sample %d: %v\n", w.name, i, err)
					return 1
				}
				res.Workloads[w.name].add(w, &sliceResult{metrics: m})
			}
		}
	}
	if *trace == 1 {
		res.Layers = map[string]map[string]float64{}
		if err := os.MkdirAll(*out, 0o755); err != nil { // for the span files
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		lr, err := newLayerRun(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		for _, w := range selected {
			wr, m, err := lr.run(w, sliceDur, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "loadgen: %s trace: %v\n", w.name, err)
				return 1
			}
			res.Layers[w.name] = m
			if res.Workloads == nil {
				res.Workloads = map[string]*workloadResult{}
			}
			if res.Workloads[w.name] == nil {
				// A trace-only run reports the traced operations as
				// its attempted/failed, but no end-to-end medians.
				wr.Slices, wr.Run = nil, nil
				res.Workloads[w.name] = wr
			} else {
				res.Workloads[w.name].Attempted += wr.Attempted
				res.Workloads[w.name].Failed += wr.Failed
				res.Workloads[w.name].Failures = append(res.Workloads[w.name].Failures, wr.Failures...)
			}
		}
	}

	failed := report(os.Stdout, selected, res)
	if err := writeResult(*out, res); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		failed++
	}
	// Every daemon was stopped by its slice; anything still alive is a
	// harness bug and would skew the next run.
	if leaked := leakedGroups(); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: child process groups still alive: %v\n", leaked)
		failed++
	}
	if *name != "" {
		printContractLine(selected[0], res, *trace == 1, failed)
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeResult saves the result file -compare reads.
func writeResult(dir string, res *runResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), append(b, '\n'), 0o644)
}

// report prints every metric by name with its unit and every failure
// with the seed and index that replay it. It returns the failure count.
func report(w *os.File, selected []*workload, res *runResult) int {
	failed := 0
	for _, wl := range selected {
		wr := res.Workloads[wl.name]
		fmt.Fprintf(w, "\n== %s: attempted %d, succeeded %d, failed %d\n", wl.name, wr.Attempted, wr.Attempted-min(wr.Failed, wr.Attempted), wr.Failed)
		failed += wr.Failed
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "FAILED %s seed %d index %d (%s): %s\n", f.Workload, f.Seed, f.Index, f.Class, f.Error)
		}
		if wr.Run != nil {
			for _, d := range endToEnd {
				fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, wr.Run[d.name], d.unit)
			}
			var rest []string
			for n := range wr.Run {
				if unitOf(endToEnd, n) == "" {
					rest = append(rest, n)
				}
			}
			sort.Strings(rest)
			for _, n := range rest {
				fmt.Fprintf(w, "%-28s %14.6g %s\n", n, wr.Run[n], unitOf(perLayer, n))
			}
		}
		if m := res.Layers[wl.name]; m != nil {
			fmt.Fprintf(w, "-- per layer (traced run)\n")
			for _, d := range perLayer {
				fmt.Fprintf(w, "%-28s %14.6g %s\n", d.name, m[d.name], d.unit)
			}
		}
	}
	return failed
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

func printContractLine(w *workload, res *runResult, layers bool, failed int) {
	wr := res.Workloads[w.name]
	line := contractLine{Correct: failed == 0, Attempted: max(wr.Attempted, 1), Failed: failed, Metrics: map[string]contractMetric{}}
	if layers {
		for _, d := range perLayer {
			line.Metrics[d.name] = contractMetric{res.Layers[w.name][d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = contractMetric{wr.Run[d.name], d.unit}
		}
	}
	b, _ := json.Marshal(line) // plain numbers and strings cannot fail
	fmt.Println(string(b))
}
