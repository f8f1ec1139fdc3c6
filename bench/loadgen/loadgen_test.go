package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mvpears/internal/audio"
	"mvpears/internal/vcache"
)

// testCorpus builds a seeded corpus without a model: the AE list reuses
// benign clips, which is all the traffic generators need.
func testCorpus(t *testing.T, seed int64) *corpus {
	t.Helper()
	co, err := buildCorpus(seed, 8000, nil)
	if err != nil {
		t.Fatal(err)
	}
	co.ae = co.benign[:numAE]
	return co
}

func TestCorpusAndScheduleAreSeeded(t *testing.T) {
	a, b, c := testCorpus(t, 7), testCorpus(t, 7), testCorpus(t, 8)
	for i := range a.benign {
		if !bytes.Equal(a.benign[i].wav, b.benign[i].wav) {
			t.Fatalf("benign clip %d differs between two builds of seed 7", i)
		}
	}
	for i := range a.long {
		if !bytes.Equal(a.long[i].wav, b.long[i].wav) {
			t.Fatalf("long clip %d differs between two builds of seed 7", i)
		}
	}
	if bytes.Equal(a.benign[0].wav, c.benign[0].wav) {
		t.Fatal("seeds 7 and 8 built the same first clip")
	}
	if n := len(a.long[0].wav); n < 3*len(a.benign[0].wav)/2 {
		t.Fatalf("long clip has %d bytes, not a three-utterance concatenation", n)
	}

	w := workloadByName("mix_open")
	s1, next1 := poissonSchedule(w, a, 7, 100, 5*time.Second)
	s2, next2 := poissonSchedule(w, b, 7, 100, 5*time.Second)
	s3, _ := poissonSchedule(w, a, 8, 100, 5*time.Second)
	if !reflect.DeepEqual(s1, s2) || next1 != next2 {
		t.Fatal("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 120 events/s over 5 s, plus the second halves of duplicate pairs.
	if len(s1) < 500 || len(s1) > 800 {
		t.Fatalf("%d arrivals in 5 s at 120 events/s", len(s1))
	}
	classes := map[opClass]int{}
	for i, arr := range s1 {
		if i > 0 && arr.due < s1[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		spec := w.spec(a, 7, arr.k)
		classes[spec.class]++
		if !reflect.DeepEqual(spec, w.spec(b, 7, arr.k)) {
			t.Fatalf("operation %d differs between equal seeds", arr.k)
		}
	}
	for c := classHit; c <= classBatch; c++ {
		if classes[c] == 0 {
			t.Errorf("mix_open schedule has no %s operation", classNames[c])
		}
	}
	if classes[classDup]%2 != 0 {
		t.Errorf("%d duplicate arrivals: pairs must stay whole", classes[classDup])
	}
}

// TestVariantsNeverCollide: 100 000 variants of one clip have 100 000
// distinct content keys, even though the clip is full of the two sample
// values (-32768, -32767) the key canonicalizes into one.
func TestVariantsNeverCollide(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]int16, 400)
	for i := range samples {
		switch rng.Intn(4) {
		case 0:
			samples[i] = -32768
		case 1:
			samples[i] = -32767
		default:
			samples[i] = int16(rng.Intn(65536) - 32768)
		}
	}
	// Write the WAV by hand: WriteWAV would clamp -32768 away.
	var buf bytes.Buffer
	c := &audio.Clip{SampleRate: 8000, Samples: make([]float64, len(samples))}
	if err := audio.WriteWAV(&buf, c); err != nil {
		t.Fatal(err)
	}
	wav := buf.Bytes()
	for i, s := range samples {
		binary.LittleEndian.PutUint16(wav[len(wav)-2*len(samples)+2*i:], uint16(s))
	}
	cl, err := newClipFromWAV(wav)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]uint32, 100000)
	var dst []byte
	for n := uint32(0); n < 100000; n++ {
		dst = cl.variant(n, dst)
		if len(dst) != len(wav) || !bytes.Equal(dst[:cl.dataOff], wav[:cl.dataOff]) {
			t.Fatalf("variant %d changed the WAV structure", n)
		}
		key := vcache.KeyPCM16("fp", 8000, dst[cl.dataOff:])
		if prev, dup := seen[key]; dup {
			t.Fatalf("variants %d and %d share a content key", prev, n)
		}
		seen[key] = n
	}
	// A variant differs from the clip in low bits only.
	all := cl.variant(0xffffffff, nil)
	for i := range wav {
		if wav[i]&^1 != all[i]&^1 {
			t.Fatalf("variant changed more than a low bit at byte %d", i)
		}
	}
}

func TestPercentilesAndSliceMedians(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {100, 9}, {25, 3}, {90, 8.2}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("an empty sample must read 0")
	}
	// Percentiles are taken per slice; the reported value is the median of
	// the slice values, not a percentile of the pooled sample. A slice
	// that lacks a metric (a set-up sample) does not drag it to zero.
	got := medianOfSlices([]map[string]float64{
		{"latency_p50_ms": 4, "setup_s": 0.3},
		{"latency_p50_ms": 9, "setup_s": 0.1},
		{"latency_p50_ms": 5, "setup_s": 0.2},
		{"setup_s": 0.4},
	})
	if got["latency_p50_ms"] != 5 || got["setup_s"] != 0.25 {
		t.Errorf("medianOfSlices = %v", got)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// request [0,100]
	//   read   [5,15]
	//   detect [20,90]
	//     engineA [25,60]
	//     engineB [50,85]   overlaps A: the union [25,85] is covered once
	//   late   [95,120]     sticks out: only [95,100] is inside the parent
	spans := []span{
		{Name: "request", Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "read", Parent: 0, StartNS: 5, EndNS: 15},
		{Name: "detect", Parent: 0, StartNS: 20, EndNS: 90},
		{Name: "engineA", Parent: 2, StartNS: 25, EndNS: 60},
		{Name: "engineB", Parent: 2, StartNS: 50, EndNS: 85},
		{Name: "late", Parent: 0, StartNS: 95, EndNS: 120},
	}
	want := []int64{100 - 10 - 70 - 5, 10, 70 - 60, 35, 35, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// fakeDetection is a schema-valid verdict for the fake servers.
const fakeDetection = `{"verdict":"benign","adversarial":false,"scores":[1,1,1],"auxiliaries":["DS1","GCS","AT"],` +
	`"transcriptions":{"DS0":"a","DS1":"a","GCS":"a","AT":"a"},"timing":{}}`

// TestOpenLoopCountsFromDueTime: a server that stalls must inflate the
// latency of the requests that were due during the stall, even though
// each of them, once sent, is answered at once. Timing from the send
// instead would hide the stall (coordinated omission).
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	var served atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) <= connections {
			time.Sleep(stall) // the first request on each connection hangs
		}
		w.Write([]byte(fakeDetection))
	}))
	defer srv.Close()
	co := testCorpus(t, 3)
	w := &workload{
		name: "stall", limitMS: 25,
		spec: func(co *corpus, seed int64, k uint64) opSpec {
			return opSpec{classMiss, []part{{'b', 0, neverSeen(k, 0)}}}
		},
	}
	var sched []arrival
	for i := 0; i < 20; i++ {
		sched = append(sched, arrival{k: uint64(i), due: time.Duration(i) * 10 * time.Millisecond})
	}
	cl := newClient(srv.URL, co, 3, w, keepEvery)
	defer cl.close()
	ph := cl.runOpen(sched, 200*time.Millisecond)
	if len(ph.results) != len(sched) {
		t.Fatalf("%d results for %d arrivals", len(ph.results), len(sched))
	}
	for _, res := range ph.results {
		if res.err != nil {
			t.Fatalf("operation %d: %v", res.k, res.err)
		}
		due := time.Duration(res.k) * 10 * time.Millisecond
		// Nothing is answered before the stall ends, so an arrival due
		// at `due` waits at least stall-due, sent or not.
		wantMS := float64(stall-due)/float64(time.Millisecond) - 5
		if res.latencyMS < wantMS {
			t.Errorf("operation due at %v reports %.1f ms; the stall alone costs it %.1f ms", due, res.latencyMS, wantMS)
		}
		if res.k >= connections && res.lateMS < wantMS {
			t.Errorf("operation due at %v was sent %.1f ms late, want at least %.1f ms", due, res.lateMS, wantMS)
		}
	}
	m := sliceMetrics(w, ph, snapshot{counters: counters{}}, snapshot{counters: counters{}}, nil)
	if m["slo_share"] != 0 {
		t.Errorf("slo_share = %v: every request missed the 25 ms limit", m["slo_share"])
	}
	if m["loadgen.late_p99_ms"] < 100 {
		t.Errorf("late_p99_ms = %v does not show the stall", m["loadgen.late_p99_ms"])
	}
}

func TestResponseChecks(t *testing.T) {
	var good detectionWire
	if err := json.Unmarshal([]byte(fakeDetection), &good); err != nil {
		t.Fatal(err)
	}
	if err := checkDetection(&good, false); err != nil {
		t.Fatalf("valid verdict rejected: %v", err)
	}
	if checkDetection(&good, true) == nil {
		t.Error("an uncached verdict passed a cached:true expectation")
	}
	for name, breakIt := range map[string]func(d *detectionWire){
		"verdict disagrees with flag": func(d *detectionWire) { d.Adversarial = true },
		"unknown verdict":             func(d *detectionWire) { d.Verdict = "maybe" },
		"missing score":               func(d *detectionWire) { d.Scores = d.Scores[:2] },
		"score out of range":          func(d *detectionWire) { d.Scores = []float64{1, 1.5, 1} },
		"NaN score":                   func(d *detectionWire) { d.Scores = []float64{1, math.NaN(), 1} },
		"missing transcription":       func(d *detectionWire) { d.Transcriptions = map[string]string{"DS0": "a"} },
	} {
		bad := good
		bad.Scores = append([]float64(nil), good.Scores...)
		breakIt(&bad)
		if checkDetection(&bad, false) == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	// Duplicate pairs: one detection is the norm, two are counted as
	// wasted work, none means a never-seen clip got somebody's verdict.
	dup := func(k uint64, cached bool) result {
		return result{k: k, spec: opSpec{class: classDup}, dets: []detectionWire{{Cached: cached}}}
	}
	results := []result{dup(1, false), dup(1, true), dup(2, false), dup(2, false), dup(3, true), dup(3, true)}
	if got := countDupPairs(results); got != 1 {
		t.Errorf("countDupPairs = %d double runs, want 1", got)
	}
	for i, wantErr := range []bool{false, false, false, false, true, true} {
		if (results[i].err != nil) != wantErr {
			t.Errorf("pair result %d: err = %v, want error %v", i, results[i].err, wantErr)
		}
	}
}

// TestQuietWindows: operations land in the window their response arrived
// in, and the slice reports its best windows, not its average ones.
func TestQuietWindows(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Ten 100 ms windows; the daemon burns 10 ms of CPU per operation.
	// Windows 0-7 are disturbed (5 operations of 20 ms), 8-9 quiet (10 of 10 ms).
	stamps := []cpuStamp{{at(0), 0}}
	var results []result
	cpu := 0.0
	for wdw := 0; wdw < 10; wdw++ {
		n, lat := 5, 20.0
		if wdw >= 8 {
			n, lat = 10, 10.0
		}
		for i := 0; i < n; i++ {
			results = append(results, result{end: at(wdw*100 + 5 + i*9), latencyMS: lat})
		}
		cpu += float64(n) * 0.010
		stamps = append(stamps, cpuStamp{at((wdw + 1) * 100), cpu})
	}
	results = append(results, result{end: at(1050), latencyMS: 999}) // after the last stamp: in no window
	ws := cutWindows(results, stamps)
	if len(ws) != 10 {
		t.Fatalf("%d windows, want 10", len(ws))
	}
	if w := ws[0]; math.Abs(w.rps-50) > 1e-9 || w.p50MS != 20 || math.Abs(w.cpuMS-10) > 1e-9 {
		t.Errorf("disturbed window = %+v, want 50 ops/s, 20 ms, 10 ms CPU", w)
	}
	if w := ws[9]; math.Abs(w.rps-100) > 1e-9 || w.p50MS != 10 {
		t.Errorf("quiet window = %+v, want 100 ops/s, 10 ms", w)
	}
	ph := phase{results: results, wall: 1100 * time.Millisecond}
	closed := &workload{limitMS: 25}
	m := sliceMetrics(closed, ph, snapshot{counters: counters{}}, snapshot{cpu: cpu, counters: counters{}}, ws)
	if m["throughput_rps"] < 95 || m["latency_p50_ms"] > 11 {
		t.Errorf("quiet-window estimate = %v ops/s, %v ms; the quiet windows ran 100 ops/s at 10 ms", m["throughput_rps"], m["latency_p50_ms"])
	}
	if m["loadgen.throughput_all_rps"] > 60 || m["loadgen.latency_p50_all_ms"] != 20 {
		t.Errorf("all-windows figures = %v ops/s, %v ms; want the disturbed majority", m["loadgen.throughput_all_rps"], m["loadgen.latency_p50_all_ms"])
	}
	// The slow straggler still counts against the SLO.
	if want := 60.0 / 61; math.Abs(m["slo_share"]-want) > 1e-9 {
		t.Errorf("slo_share = %v, want %v", m["slo_share"], want)
	}
	// An open loop reports the whole stretch, not its luckiest draw.
	open := &workload{limitMS: 25, rate: 50}
	m = sliceMetrics(open, ph, snapshot{counters: counters{}}, snapshot{counters: counters{}}, ws)
	if m["throughput_rps"] != m["loadgen.throughput_all_rps"] || m["latency_p50_ms"] != m["loadgen.latency_p50_all_ms"] {
		t.Errorf("open loop reports %v ops/s, %v ms; want the all-windows %v, %v",
			m["throughput_rps"], m["latency_p50_ms"], m["loadgen.throughput_all_rps"], m["loadgen.latency_p50_all_ms"])
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{name: "latency_p50_ms", bound: 0.10}
	higher := metricDef{name: "throughput_rps", higher: true, bound: 0.10}
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, []float64{10, 10.2, 9.9}, []float64{10.1, 10, 10.3}, verdictOK},
		{"better", lower, []float64{10, 10.2, 9.9}, []float64{8, 8.1, 7.9}, verdictOK},
		{"regressed", lower, []float64{10, 10.2, 9.9}, []float64{12, 12.1, 11.9}, verdictRegressed},
		{"throughput drop", higher, []float64{400, 405, 398}, []float64{340, 338, 345}, verdictRegressed},
		{"throughput gain", higher, []float64{400, 405, 398}, []float64{500, 505, 498}, verdictOK},
		// Slices 30 % apart cannot resolve a 10 % bound when they overlap...
		{"noisy overlap", lower, []float64{10, 13, 9}, []float64{11.5, 9.5, 12.5}, verdictUnresolved},
		// ...but disjoint sides still carry a verdict either way.
		{"noisy but all worse", lower, []float64{10, 13, 9}, []float64{20, 24, 19}, verdictRegressed},
		{"noisy but all better", lower, []float64{10, 13, 9}, []float64{5, 6.5, 4.5}, verdictOK},
	} {
		if _, got := compareMetric(tc.d, median(tc.a), median(tc.b), tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	wr := &workloadResult{}
	closed := &workload{}
	wr.add(closed, &sliceResult{metrics: map[string]float64{"throughput_rps": 400, "latency_p50_ms": 5, "cpu_ms_per_req": 4, "rss_peak_mb": 20, "slo_share": 1, "setup_s": 0.01}})
	wr.add(closed, &sliceResult{metrics: map[string]float64{"setup_s": 0.02}}) // a set-up sample
	if got := wr.Run["setup_s"]; math.Abs(got-0.011) > 1e-12 || wr.Run["throughput_rps"] != 400 {
		t.Errorf("run figures = %v; want the 10th percentile of the set-ups and the one slice's throughput", wr.Run)
	}
	a := &runResult{Workloads: map[string]*workloadResult{"miss_full": wr}}
	var out bytes.Buffer
	if code := compareResults(&out, a, a); code != 0 || bytes.Contains(out.Bytes(), []byte(verdictRegressed)) {
		t.Errorf("a result compared with itself: exit %d\n%s", code, out.String())
	}
}

func TestProcParsers(t *testing.T) {
	cpu, err := parseStatCPU("4242 (mvpearsd (x) y) S 1 4242 4242 0 -1 4194304 500 0 0 0 150 50 0 0 20 0 5 0 100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0")
	if err != nil || cpu != 2 {
		t.Errorf("parseStatCPU = %v, %v; want 2 s from utime 150 + stime 50 ticks", cpu, err)
	}
	c := parseMetrics([]byte("# HELP x\nmvpears_requests_total{route=\"detect\",code=\"200\"} 7\n" +
		"mvpears_requests_total{route=\"detect_batch\",code=\"200\"} 2\nmvpears_requests_total{route=\"metrics\",code=\"200\"} 9\n" +
		"mvpears_cache_hits_total 3\n"))
	if got := c.detectRequests(); got != 9 {
		t.Errorf("detectRequests = %v, want 9 (the metrics route does not count)", got)
	}
	if c["mvpears_cache_hits_total"] != 3 {
		t.Errorf("unlabelled sample = %v", c["mvpears_cache_hits_total"])
	}
	ms, err := parseMemStats([]byte("heap profile: ...\n# Mallocs = 100\n# TotalAlloc = 2048\n# HeapInuse = 1048576\n# NumGC = 3\n# PauseNs = [10 20 30 0]\n"))
	if err != nil || ms.mallocs != 100 || ms.numGC != 3 || len(ms.pauseNs) != 4 {
		t.Fatalf("parseMemStats = %+v, %v", ms, err)
	}
	if _, err := parseMemStats([]byte("no stats here")); err == nil {
		t.Error("a profile without the MemStats block was accepted")
	}
	// Between GC 1 and GC 3 the pauses are entries 1 and 2: 20 + 30 ns.
	if got := gcPauseMS(memStats{numGC: 1}, ms); math.Abs(got-50e-6) > 1e-12 {
		t.Errorf("gcPauseMS = %v, want 50 ns", got)
	}
}

// TestChildGroupsAreReaped: a child that forks and a grandchild that
// outlives it are both gone after killGroup, and nothing is left on the
// books. This is the mechanism that keeps mvpearsd processes from
// surviving a run on any exit path.
func TestChildGroupsAreReaped(t *testing.T) {
	cmd := exec.Command("sh", "-c", "sleep 60 & sleep 60")
	if err := startGroup(cmd); err != nil {
		t.Skip("no sh to fork: ", err)
	}
	pgid := cmd.Process.Pid
	go cmd.Wait()
	if !groupAlive(pgid) {
		t.Fatal("the group is not alive right after start")
	}
	if len(leakedGroups()) != 1 {
		t.Fatalf("leakedGroups = %v, want the one live group", leakedGroups())
	}
	killAllGroups()
	if groupAlive(pgid) {
		t.Fatal("processes of the group survived killAllGroups")
	}
	if got := leakedGroups(); len(got) != 0 {
		t.Fatalf("leakedGroups = %v after the kill", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver
// reads, and the tables in the code, which produce the numbers, equal.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&struct {
		Command    any `json:"command"`
		Paths      any `json:"paths"`
		RunSeconds int `json:"run_seconds"`
		Workloads  any `json:"workloads"`
		EndToEnd   any `json:"end_to_end"`
		PerLayer   any `json:"per_layer"`
	}{}); err != nil {
		t.Fatalf("BENCHMARK.json has a key the contract does not: %v", err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, code %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		e := spec.EndToEnd[i]
		if e.Name != d.name || e.Unit != d.unit || e.Bound != d.bound || (e.Better == "higher") != d.higher {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code %+v", i, e, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if p := spec.PerLayer[i]; p.Name != d.name || p.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code %+v", i, p, d)
		}
	}
}
