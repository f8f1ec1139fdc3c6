package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"mvpears"
)

// metricDef names a metric. higher and bound matter for end-to-end
// metrics only: which direction is better, and the share of the parent's
// median by which the metric may worsen before it is a regression.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

// endToEnd lists the six end-to-end metrics in print order. The bounds
// are BENCHMARK.json's; TestBenchmarkJSONMatchesCode keeps them equal.
var endToEnd = []metricDef{
	{"throughput_rps", "ops/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"cpu_ms_per_req", "ms", false, 0.25},
	{"rss_peak_mb", "MB", false, 0.25},
	{"slo_share", "ratio", true, 0.01},
	{"setup_s", "s", false, 0.25},
}

// keepEvery is the seeded 1-in-N sample of timed operations whose
// verdicts are compared with the in-process reference after each slice.
const keepEvery = 20

// runner holds what every slice of a run shares.
type runner struct {
	seed      int64
	co        *corpus
	sys       *mvpears.System // the reference: the daemon's artifact, opened in-process
	daemonBin string
	model     string
	runDir    string
	warmup    time.Duration
	nextK     uint64 // operation index, counting up over the whole run
	// fixtureSeconds is the corpus synthesis time; bootstrapSeconds is
	// non-zero when this run had to train the model cache.
	fixtureSeconds, bootstrapSeconds float64
	// refMemo caches reference verdicts of hot-set clips.
	refMemo map[part]*mvpears.Detection
}

// failure names one failed operation so that it can be replayed.
type failure struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Index    uint64 `json:"index"`
	Class    string `json:"class"`
	Error    string `json:"error"`
}

// sliceResult is one measured slice: fresh daemon, warm-up, timed
// window, teardown, checks.
type sliceResult struct {
	metrics   map[string]float64
	attempted int
	failures  []failure
	windows   []window
}

// reference runs the in-process detection the daemon's verdict must
// equal.
func (r *runner) reference(p part) (*mvpears.Detection, error) {
	if det, ok := r.refMemo[p]; ok {
		return det, nil
	}
	clip, err := decodeWAV(r.co.payload(p, nil))
	if err != nil {
		return nil, err
	}
	det, err := r.sys.DetectCtx(context.Background(), clip)
	if err != nil {
		return nil, err
	}
	if p.variant == 0 {
		r.refMemo[p] = det
	}
	return det, nil
}

// sameVerdict compares a wire verdict with the reference bit for bit:
// verdict, every score's float64 bits, every transcription.
func sameVerdict(got *detectionWire, want *mvpears.Detection) error {
	if got.Adversarial != want.Adversarial {
		return fmt.Errorf("verdict adversarial=%v, reference %v", got.Adversarial, want.Adversarial)
	}
	if len(got.Scores) != len(want.Scores) {
		return fmt.Errorf("%d scores, reference %d", len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			return fmt.Errorf("score %d is %v, reference %v", i, got.Scores[i], want.Scores[i])
		}
	}
	if len(got.Transcriptions) != len(want.Transcriptions) {
		return fmt.Errorf("%d transcriptions, reference %d", len(got.Transcriptions), len(want.Transcriptions))
	}
	for engine, text := range want.Transcriptions {
		if got.Transcriptions[engine] != text {
			return fmt.Errorf("%s transcribed %q, reference %q", engine, got.Transcriptions[engine], text)
		}
	}
	return nil
}

// checkReferences compares every kept verdict of a phase with the
// in-process reference and marks mismatching operations as failed.
func (r *runner) checkReferences(results []result) error {
	for i := range results {
		res := &results[i]
		if res.err != nil {
			continue
		}
		for j := range res.dets {
			want, err := r.reference(res.spec.parts[j])
			if err != nil {
				return err
			}
			if err := sameVerdict(&res.dets[j], want); err != nil {
				res.err = fmt.Errorf("part %d differs from in-process DetectCtx: %v", j, err)
				break
			}
		}
	}
	return nil
}

// snapshot is the daemon's state at one edge of the timed window.
type snapshot struct {
	cpu      float64
	counters counters
	mem      memStats // trace runs only
}

func takeSnapshot(d *daemon, withMem bool) (snapshot, error) {
	var s snapshot
	var err error
	if s.cpu, err = d.cpuSeconds(); err != nil {
		return s, err
	}
	if s.counters, err = d.scrape(); err != nil {
		return s, err
	}
	if withMem {
		s.mem, err = d.memStats()
	}
	return s, err
}

// station is one set-up: a freshly booted daemon for a workload, its
// cache primed when the workload has a hot set, and a client on it.
type station struct {
	d            *daemon
	cl           *client
	dir          string
	primeSeconds float64
	stopped      bool
}

// setUp boots a fresh daemon for w and primes it. What it times is
// setup_s: exec to the first /readyz 200, plus sending each hot-set
// clip once, in order.
func (r *runner) setUp(w *workload, keep uint64) (*station, error) {
	dir, err := os.MkdirTemp(r.runDir, w.name+"-")
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(r.daemonBin, dir, r.model, w.daemonArgs, time.Minute)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	st := &station{d: d, dir: dir, cl: newClient(d.base, r.co, r.seed, w, keep)}
	primeStart := time.Now()
	if w.prime {
		var sc scratch
		for i := range r.co.benign {
			spec := opSpec{classMiss, []part{{'b', i, 0}}}
			if res := st.cl.do(0, spec, time.Now(), &sc); res.err != nil {
				st.tearDown()
				return nil, fmt.Errorf("priming clip %d: %v", i, res.err)
			}
		}
	}
	st.primeSeconds = time.Since(primeStart).Seconds()
	return st, nil
}

func (st *station) setupMetrics(m map[string]float64) {
	m["setup_s"] = st.d.bootSeconds + st.primeSeconds
	m["mvpearsd.boot_ms"] = st.d.bootSeconds * 1000
}

// stop drains the daemon and requires a clean exit.
func (st *station) stop() error {
	st.stopped = true
	return st.d.stop()
}

// tearDown releases everything; a daemon that stop did not already
// drain is killed.
func (st *station) tearDown() {
	st.cl.close()
	if !st.stopped {
		killGroup(st.d.pid())
	}
	os.RemoveAll(st.dir)
}

// setupSample measures set-up alone: boot, prime, drain. A run takes a
// few of these on top of its slices' own set-ups, because a 7 ms boot
// needs more than three samples for a steady figure.
func (r *runner) setupSample(w *workload) (map[string]float64, error) {
	st, err := r.setUp(w, keepEvery)
	if err != nil {
		return nil, err
	}
	defer st.tearDown()
	m := map[string]float64{}
	st.setupMetrics(m)
	return m, st.stop()
}

// runSlice measures one slice of w for dur. With layers set it also
// fills the per-layer counts the daemon exposes (the trace run).
func (r *runner) runSlice(w *workload, dur time.Duration, layers bool) (*sliceResult, error) {
	st, err := r.setUp(w, keepEvery)
	if err != nil {
		return nil, err
	}
	defer st.tearDown()
	d, cl := st.d, st.cl

	load := func(dur time.Duration) phase {
		if w.rate > 0 {
			sched, next := poissonSchedule(w, r.co, r.seed, r.nextK, dur)
			r.nextK = next
			return cl.runOpen(sched, dur)
		}
		ph := cl.runClosed(r.nextK, dur)
		r.nextK = ph.nextK
		return ph
	}
	load(r.warmup) // untimed, unchecked: connections, pools and heap settle
	before, err := takeSnapshot(d, layers)
	if err != nil {
		return nil, err
	}
	// While the load runs, the daemon's CPU clock is read every
	// windowLength: the stamps cut the slice into windows.
	stamps := []cpuStamp{{time.Now(), before.cpu}}
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(windowLength)
		defer tick.Stop()
		for {
			select {
			case <-stopSampling:
				return
			case now := <-tick.C:
				if cpu, err := d.cpuSeconds(); err == nil {
					stamps = append(stamps, cpuStamp{now, cpu})
				}
			}
		}
	}()
	ph := load(dur)
	close(stopSampling)
	<-sampled
	after, err := takeSnapshot(d, layers)
	if err != nil {
		return nil, err
	}
	rss, err := d.rssPeakMB()
	if err != nil {
		return nil, err
	}
	if err := st.stop(); err != nil {
		return nil, err
	}

	doubleRuns := countDupPairs(ph.results)
	if w.reference {
		if err := r.checkReferences(ph.results); err != nil {
			return nil, err
		}
	}
	sr := &sliceResult{attempted: len(ph.results), windows: cutWindows(ph.results, stamps)}
	m := sliceMetrics(w, ph, before, after, sr.windows)
	m["server.dup_double_runs"] = float64(doubleRuns)
	m["rss_peak_mb"] = rss
	st.setupMetrics(m)
	if layers {
		layerCounts(m, ph, before, after)
	}
	sr.metrics = m
	for _, res := range ph.results {
		if res.err != nil {
			sr.failures = append(sr.failures, failure{w.name, r.seed, res.k, classNames[res.spec.class], res.err.Error()})
		}
	}
	// Workload-level validity: the traffic did what the workload is for.
	fail := func(format string, args ...any) {
		sr.failures = append(sr.failures, failure{w.name, r.seed, 0, "workload", fmt.Sprintf(format, args...)})
	}
	if diff := m["loadgen.reconcile_diff"]; diff != 0 {
		fail("sent %d operations but mvpears_requests_total moved by %v on the detect routes", len(ph.results), float64(len(ph.results))-diff)
	}
	if share := m["server.cached_share"]; w.cachedMin >= 0 && (share < w.cachedMin || share > w.cachedMax) {
		fail("%.4f of responses were cached, want %v..%v", share, w.cachedMin, w.cachedMax)
	}
	return sr, nil
}

// windowLength is the grain of the quiet-window estimate. It is long
// enough that the 10 ms tick of /proc CPU time is under 3 % of a window's
// CPU, and short enough that a 5 s slice has ten windows.
const windowLength = 500 * time.Millisecond

// cpuStamp is the daemon's CPU clock read at one instant.
type cpuStamp struct {
	at  time.Time
	cpu float64
}

// window is what one stretch between two stamps measured.
type window struct{ rps, p50MS, cpuMS float64 }

// cutWindows assigns every correct operation to the window its response
// arrived in. Operations that finish after the last stamp belong to no
// window; they still count in the slice totals.
func cutWindows(results []result, stamps []cpuStamp) []window {
	lats := make([][]float64, max(len(stamps)-1, 0))
	for _, res := range results {
		if res.err != nil {
			continue
		}
		i := sort.Search(len(stamps), func(i int) bool { return stamps[i].at.After(res.end) }) - 1
		if i >= 0 && i < len(lats) {
			lats[i] = append(lats[i], res.latencyMS)
		}
	}
	var out []window
	for i, l := range lats {
		if len(l) == 0 {
			continue
		}
		secs := stamps[i+1].at.Sub(stamps[i].at).Seconds()
		out = append(out, window{
			rps:   float64(len(l)) / secs,
			p50MS: median(l),
			cpuMS: (stamps[i+1].cpu - stamps[i].cpu) * 1000 / float64(len(l)),
		})
	}
	return out
}

// quietEstimate reduces windows to the machine's quiet-window figures:
// the 90th percentile of the rates, the 10th of latency and CPU.
func quietEstimate(ws []window) window {
	var rps, p50, cpu []float64
	for _, win := range ws {
		rps, p50, cpu = append(rps, win.rps), append(p50, win.p50MS), append(cpu, win.cpuMS)
	}
	return window{percentile(rps, 90), percentile(p50, 10), percentile(cpu, 10)}
}

// sliceMetrics derives the end-to-end metrics and the load generator's
// own rows from one timed phase.
//
// Speed is reported for the machine's quiet windows: throughput is the
// 90th percentile of the per-window rates, latency and CPU per request
// the 10th percentile of the per-window values. Interference from other
// tenants of the host only ever slows a window down (identical work ran
// 1.5-3.5x apart within a minute on the box this was written on), so the
// best windows are what repeats from run to run; a median would report
// the neighbours' duty cycle. A stall inside the daemon that touches
// fewer than nine windows in ten escapes these three numbers -- it is
// caught by slo_share and the loadgen.latency_p99* rows, which count
// every operation, and the all-windows figures are printed beside them.
func sliceMetrics(w *workload, ph phase, before, after snapshot, ws []window) map[string]float64 {
	var (
		lat, late   []float64
		ok, inLimit int
		byClass     [numClasses][]float64
	)
	for _, res := range ph.results {
		late = append(late, res.lateMS)
		if res.err != nil {
			continue
		}
		ok++
		lat = append(lat, res.latencyMS)
		byClass[res.spec.class] = append(byClass[res.spec.class], res.latencyMS)
		if res.latencyMS <= w.limitFor(res.spec.class) {
			inLimit++
		}
	}
	// The cached share comes from the daemon's own counters, so it covers
	// every response, not only the kept sample.
	hits := after.counters["mvpears_cache_hits_total"] - before.counters["mvpears_cache_hits_total"]
	collapsed := after.counters["mvpears_singleflight_collapsed_total"] - before.counters["mvpears_singleflight_collapsed_total"]
	verdicts := after.counters.sum("mvpears_detections_total{") - before.counters.sum("mvpears_detections_total{")

	sort.Float64s(lat)
	wall := ph.wall.Seconds()
	all := window{
		rps:   float64(ok) / wall,
		p50MS: percentileSorted(lat, 50),
		cpuMS: (after.cpu - before.cpu) * 1000 / float64(max(ok, 1)),
	}
	// The quiet-window estimate is for closed loops, whose operations are
	// alike. In the open-loop mix a window's figures follow its draw of
	// hits, misses and batches, so picking windows would pick the draw:
	// there the whole timed stretch is the only fair unit, and throughput
	// is the rate achieved over it.
	quiet := all
	if len(ws) > 0 && w.rate == 0 {
		quiet = quietEstimate(ws)
	}
	m := map[string]float64{
		"throughput_rps":             quiet.rps,
		"latency_p50_ms":             quiet.p50MS,
		"cpu_ms_per_req":             quiet.cpuMS,
		"loadgen.throughput_all_rps": all.rps,
		"loadgen.latency_p50_all_ms": all.p50MS,
		"loadgen.cpu_ms_per_req_all": all.cpuMS,
		"slo_share":                  float64(inLimit) / float64(max(len(ph.results), 1)),
		"loadgen.sent":               float64(len(ph.results)),
		"loadgen.ok":                 float64(ok),
		"loadgen.failed":             float64(len(ph.results) - ok),
		"loadgen.latency_p90_ms":     percentileSorted(lat, 90),
		"loadgen.latency_p99_ms":     percentileSorted(lat, 99),
		"loadgen.latency_p999_ms":    percentileSorted(lat, 99.9),
		"loadgen.late_p99_ms":        percentile(late, 99),
		"loadgen.reconcile_diff":     float64(len(ph.results)) - (after.counters.detectRequests() - before.counters.detectRequests()),
		"server.cached_share":        (hits + collapsed) / max(verdicts, 1),
	}
	for c, name := range classNames {
		if c != int(classStream) {
			m["loadgen."+name+"_p50_ms"] = percentile(byClass[c], 50)
		}
	}
	return m
}

// layerCounts fills the per-layer rows that come from the daemon's
// /metrics deltas and its MemStats block over the timed window.
func layerCounts(m map[string]float64, ph phase, before, after snapshot) {
	delta := func(name string) float64 { return after.counters.sum(name) - before.counters.sum(name) }
	ok := math.Max(m["loadgen.ok"], 1)
	m["mvpearsd.allocs_per_req"] = (after.mem.mallocs - before.mem.mallocs) / ok
	m["mvpearsd.alloc_kb_per_req"] = (after.mem.totalAlloc - before.mem.totalAlloc) / 1024 / ok
	m["mvpearsd.gc_cycles"] = after.mem.numGC - before.mem.numGC
	m["mvpearsd.gc_pause_ms"] = gcPauseMS(before.mem, after.mem)
	m["mvpearsd.heap_inuse_mb"] = after.mem.heapInuse / (1 << 20)
	m["mvpearsd.goroutines_end"] = after.mem.goroutines
	hits, misses := delta("mvpears_cache_hits_total"), delta("mvpears_cache_misses_total")
	m["server.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	m["server.cache_evictions"] = delta("mvpears_cache_evictions_total")
	m["server.flight_collapsed"] = delta("mvpears_singleflight_collapsed_total")
	m["server.detections_run"] = delta(`mvpears_detect_stage_seconds_count{stage="recognition"}`)
	m["server.rejected_429"] = delta("mvpears_rejected_total{")
	cascaded := delta("mvpears_cascade_engines_run_count")
	m["detector.short_circuit_share"] = delta("mvpears_cascade_short_circuits_total") / math.Max(cascaded, 1)
	m["detector.engines_run_mean"] = delta("mvpears_cascade_engines_run_sum") / math.Max(cascaded, 1)

	var windows, flagAudio []float64
	flagged, sessions := 0, 0
	for _, res := range ph.results {
		if res.spec.class != classStream || res.err != nil {
			continue
		}
		sessions++
		windows = append(windows, float64(res.windows))
		if res.flagged {
			flagged++
			flagAudio = append(flagAudio, res.flagAudioMS)
		}
	}
	m["stream.windows_per_session"] = mean(windows)
	m["stream.flagged_share"] = float64(flagged) / float64(max(sessions, 1))
	m["stream.flag_audio_ms_p50"] = percentile(flagAudio, 50)
}

// workloadResult is every slice of one workload plus the run's figures.
// rss_peak_mb, slo_share, the open loop's achieved rate and the loadgen
// rows are the median of the slice values. The time metrics are quiet
// estimates (see sliceMetrics): other tenants of the host only ever slow
// the machine down, so its quiet speed is what repeats between runs.
type workloadResult struct {
	Slices    []map[string]float64 `json:"slices"`
	Run       map[string]float64   `json:"run"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []failure            `json:"failures,omitempty"`
	windows   []window
}

// add takes in one slice (or set-up sample) of workload w.
func (wr *workloadResult) add(w *workload, sr *sliceResult) {
	wr.Slices = append(wr.Slices, sr.metrics)
	wr.Attempted += sr.attempted
	wr.Failed += len(sr.failures)
	// Keep enough failures to diagnose, not a flood.
	wr.Failures = append(wr.Failures, sr.failures[:min(len(sr.failures), 10)]...)
	wr.windows = append(wr.windows, sr.windows...)
	wr.Run = medianOfSlices(wr.Slices)
	// Every time metric is a quiet estimate over the finest unit that is
	// fair for it: single set-ups, 0.5 s windows of a closed loop, whole
	// slices of the open loop.
	wr.Run["setup_s"] = percentile(wr.column("setup_s"), 10)
	switch {
	case w.rate > 0:
		wr.Run["latency_p50_ms"] = percentile(wr.column("latency_p50_ms"), 10)
		wr.Run["cpu_ms_per_req"] = percentile(wr.column("cpu_ms_per_req"), 10)
	case len(wr.windows) > 0:
		quiet := quietEstimate(wr.windows)
		wr.Run["throughput_rps"], wr.Run["latency_p50_ms"], wr.Run["cpu_ms_per_req"] = quiet.rps, quiet.p50MS, quiet.cpuMS
	}
}

// column returns one metric's value in every slice that has it (set-up
// samples carry setup_s only).
func (wr *workloadResult) column(name string) []float64 {
	var out []float64
	for _, sl := range wr.Slices {
		if v, ok := sl[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// newRunner builds what a run needs before its first slice: the daemon
// binary, the model cache, the reference system and the seeded corpus.
// On an error the runner is still returned, for its cleanup.
func newRunner(seed int64, work, daemonBin string, warmup time.Duration) (*runner, error) {
	r := &runner{seed: seed, warmup: warmup, refMemo: map[part]*mvpears.Detection{}}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return r, err
	}
	work, err := filepath.Abs(work)
	if err != nil {
		return r, err
	}
	if r.runDir, err = os.MkdirTemp(work, "run-"); err != nil {
		return r, err
	}
	if r.daemonBin = daemonBin; daemonBin == "" {
		if r.daemonBin, err = buildDaemon(r.runDir); err != nil {
			return r, err
		}
	} else if r.daemonBin, err = filepath.Abs(daemonBin); err != nil {
		return r, err
	}
	mc, err := prepareModel(r.daemonBin, filepath.Join(work, "model"))
	if err != nil {
		return r, err
	}
	r.model, r.bootstrapSeconds = mc.model, mc.bootstrapSeconds
	if r.sys, err = mvpears.Open(mc.model); err != nil {
		return r, err
	}
	start := time.Now()
	r.co, err = buildCorpus(seed, r.sys.SampleRate(), mc.aes)
	r.fixtureSeconds = time.Since(start).Seconds()
	return r, err
}

// cleanup removes the run directory and reaps any child still alive.
func (r *runner) cleanup() {
	killAllGroups()
	if r.runDir != "" {
		os.RemoveAll(r.runDir)
	}
}
