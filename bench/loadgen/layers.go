package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mvpears"
	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/detector"
	"mvpears/internal/dsp"
	"mvpears/internal/server"
	"mvpears/internal/similarity"
	"mvpears/internal/vcache"
)

// perLayer lists the per-layer metrics a trace run prints, layer by
// layer (the prefix is the module name). A row that does not apply to a
// workload reads 0 there: on hit_replay nothing below vcache runs, so
// every asr/dsp/nn row is 0, which is the prediction the workload exists
// to check.
var perLayer = []metricDef{
	{name: "loadgen.sent", unit: "count", higher: true},
	{name: "loadgen.ok", unit: "count", higher: true},
	{name: "loadgen.failed", unit: "count"},
	{name: "loadgen.throughput_all_rps", unit: "ops/s", higher: true},
	{name: "loadgen.latency_p50_all_ms", unit: "ms"},
	{name: "loadgen.cpu_ms_per_req_all", unit: "ms"},
	{name: "loadgen.latency_p90_ms", unit: "ms"},
	{name: "loadgen.latency_p99_ms", unit: "ms"},
	{name: "loadgen.latency_p999_ms", unit: "ms"},
	{name: "loadgen.late_p99_ms", unit: "ms"},
	{name: "loadgen.fixture_s", unit: "s"},
	{name: "loadgen.reconcile_diff", unit: "count"},
	{name: "loadgen.hit_p50_ms", unit: "ms"},
	{name: "loadgen.miss_p50_ms", unit: "ms"},
	{name: "loadgen.dup_p50_ms", unit: "ms"},
	{name: "loadgen.ae_p50_ms", unit: "ms"},
	{name: "loadgen.batch4_p50_ms", unit: "ms"},
	{name: "mvpearsd.boot_ms", unit: "ms"},
	{name: "mvpearsd.bootstrap_s", unit: "s"},
	{name: "mvpearsd.allocs_per_req", unit: "count"},
	{name: "mvpearsd.alloc_kb_per_req", unit: "KB"},
	{name: "mvpearsd.gc_cycles", unit: "count"},
	{name: "mvpearsd.gc_pause_ms", unit: "ms"},
	{name: "mvpearsd.heap_inuse_mb", unit: "MB"},
	{name: "mvpearsd.goroutines_end", unit: "count"},
	{name: "server.handler_us", unit: "us"},
	{name: "server.handler_par_us", unit: "us"},
	{name: "server.self_us", unit: "us"},
	{name: "server.cache_hit_ratio", unit: "ratio", higher: true},
	{name: "server.cache_evictions", unit: "count"},
	{name: "server.flight_collapsed", unit: "count", higher: true},
	{name: "server.dup_double_runs", unit: "count"},
	{name: "server.detections_run", unit: "count"},
	{name: "server.rejected_429", unit: "count"},
	{name: "audio.read_wav_pcm_us", unit: "us"},
	{name: "audio.decode_float_us", unit: "us"},
	{name: "vcache.key_us", unit: "us"},
	{name: "vcache.get_ns", unit: "ns"},
	{name: "vcache.put_ns", unit: "ns"},
	{name: "dsp.mfcc_us.DS0", unit: "us"},
	{name: "dsp.mfcc_us.DS1", unit: "us"},
	{name: "dsp.mfcc_us.GCS", unit: "us"},
	{name: "dsp.mfcc_us.AT", unit: "us"},
	{name: "dsp.mfcc_us_total", unit: "us"},
	{name: "dsp.mfcc_distinct_configs", unit: "count"},
	{name: "nn.forward_us.DS0", unit: "us"},
	{name: "nn.forward_us.DS1", unit: "us"},
	{name: "nn.forward_us.GCS", unit: "us"},
	{name: "hmm.score_us.AT", unit: "us"},
	{name: "asr.transcribe_us.DS0", unit: "us"},
	{name: "asr.transcribe_us.DS1", unit: "us"},
	{name: "asr.transcribe_us.GCS", unit: "us"},
	{name: "asr.transcribe_us.AT", unit: "us"},
	{name: "asr.decode_us.DS0", unit: "us"},
	{name: "asr.decode_us.DS1", unit: "us"},
	{name: "asr.decode_us.GCS", unit: "us"},
	{name: "asr.decode_us.AT", unit: "us"},
	{name: "phonetic.encode_us", unit: "us"},
	{name: "similarity.score_us", unit: "us"},
	{name: "classify.predict_ns", unit: "ns"},
	{name: "detector.detect_seq_us", unit: "us"},
	{name: "detector.detect_par_us", unit: "us"},
	{name: "detector.parallel_speedup", unit: "ratio", higher: true},
	{name: "detector.self_us", unit: "us"},
	{name: "detector.short_circuit_share", unit: "ratio", higher: true},
	{name: "detector.engines_run_mean", unit: "count"},
	{name: "detector.verdict_flips", unit: "count"},
	{name: "detector.ae_recall", unit: "ratio", higher: true},
	{name: "detector.benign_fpr", unit: "ratio"},
	{name: "stream.push_us_per_hop", unit: "us"},
	{name: "stream.finish_us", unit: "us"},
	{name: "stream.windows_per_session", unit: "count"},
	{name: "stream.alloc_kb_per_window", unit: "KB"},
	{name: "stream.flag_audio_ms_p50", unit: "ms"},
	{name: "stream.flagged_share", unit: "ratio"},
	{name: "stream.final_mismatch", unit: "count"},
	{name: "transport.loopback_us", unit: "us"},
	{name: "budget.unattributed_us", unit: "us"},
	{name: "budget.closure_ratio", unit: "ratio", higher: true},
	{name: "budget.trace_overhead_us", unit: "us"},
}

// Sample sizes of the traced run. A stream session costs about 17 ms
// three times over (loopback, replay, handler), so its sample is smaller.
const (
	traceSample       = 200
	traceSampleStream = 48
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is an index into the span list (-1: a root).
type span struct {
	Name    string `json:"name"`
	Req     int    `json:"req"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent})
	id := len(t.spans) - 1
	t.spans[id].StartNS = int64(time.Since(t.t0))
	return id
}

// end closes span id and returns its duration in microseconds.
func (t *tracer) end(id int) float64 {
	t.spans[id].EndNS = int64(time.Since(t.t0))
	return float64(t.spans[id].EndNS-t.spans[id].StartNS) / 1e3
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover. Children
// may overlap each other and may stick out of the parent; only the union
// of their intervals, clipped to the parent, is subtracted.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.EndNS - s.StartNS - covered
	}
	return out
}

// engineLayer is one ASR engine seen from outside through the three
// calls the budget times: feature extraction, frame labelling (features
// + acoustic model) and transcription (frame labelling + decoding).
type engineLayer struct {
	name string
	mfcc *dsp.MFCC
	rec  interface {
		asr.Recognizer
		asr.FrameLabeler
	}
}

func engineLayers(es *asr.EngineSet) []engineLayer {
	return []engineLayer{
		{"DS0", es.DS0.MFCC, es.DS0},
		{"DS1", es.DS1.MFCC, es.DS1},
		{"GCS", es.GCS.MFCC, es.GCS},
		{"AT", es.AT.MFCC, es.AT},
	}
}

// forwardRow names the acoustic-model row of an engine: a neural
// forward pass, or GMM-HMM scoring for AT.
func forwardRow(engine string) string {
	if engine == "AT" {
		return "hmm.score_us.AT"
	}
	return "nn.forward_us." + engine
}

// layerRun is the traced, per-layer side of a run.
type layerRun struct {
	r                *runner
	bootstrapSeconds float64
	engines          *asr.EngineSet
	layers           []engineLayer
	method           similarity.Method
	distinctMFCC     int
}

// newLayerRun times a cold bootstrap (the artifact is discarded: the
// run keeps using the model cache) and trains the engine set the layer
// rows are measured on. The engines come from asr.BuildEngines with the
// seed the daemon's -bootstrap uses; they are accepted only if each
// transcribes every corpus clip exactly as the daemon's artifact does.
func newLayerRun(r *runner) (*layerRun, error) {
	lr := &layerRun{r: r}
	var err error
	scratch := filepath.Join(r.runDir, "bootstrap.gob")
	if lr.bootstrapSeconds, err = coldBootstrap(r.daemonBin, r.runDir, scratch); err != nil {
		return nil, fmt.Errorf("timing the cold bootstrap: %w", err)
	}
	os.Remove(scratch)
	if lr.engines, err = asr.BuildEngines(asr.QuickTrainConfig()); err != nil {
		return nil, err
	}
	if lr.method, err = detector.DefaultMethod(); err != nil {
		return nil, err
	}
	lr.layers = engineLayers(lr.engines)
	configs := map[dsp.MFCCConfig]bool{}
	for _, e := range lr.layers {
		configs[e.mfcc.Config()] = true
	}
	lr.distinctMFCC = len(configs)
	for _, cl := range append(append([]*clip(nil), r.co.benign...), r.co.ae...) {
		c, err := decodeWAV(cl.wav)
		if err != nil {
			return nil, err
		}
		want, err := r.sys.TranscribeAll(c)
		if err != nil {
			return nil, err
		}
		for _, e := range lr.layers {
			got, err := e.rec.Transcribe(c)
			if err != nil {
				return nil, err
			}
			if got != want[e.name] {
				return nil, fmt.Errorf("layer rows invalid: rebuilt %s transcribes %q, the daemon's artifact %q", e.name, got, want[e.name])
			}
		}
	}
	return lr, nil
}

// sampleOps returns the traced sample of w: the next n operations of
// its traffic (for an open loop, the first n arrivals of a schedule).
//
// The sample's operation indices start at traceFirstK, far above any a
// timed slice reaches, rather than wherever the closed loops happened to
// stop: the sample, and with it the quality counts, is then a function
// of the seed alone.
func (lr *layerRun) sampleOps(w *workload, n int) []arrival {
	r := lr.r
	if w.rate > 0 {
		sched, _ := poissonSchedule(w, r.co, r.seed, traceFirstK, time.Duration(float64(2*n)/w.rate*float64(time.Second)))
		// Never cut a duplicate pair in half.
		for n < len(sched) && sched[n].k == sched[n-1].k {
			n++
		}
		return sched[:min(n, len(sched))]
	}
	var out []arrival
	for i := 0; i < n; i++ {
		out = append(out, arrival{k: traceFirstK + uint64(i)})
	}
	return out
}

const traceFirstK = 1 << 40

// fastConfig reports whether the workload's daemon runs the cascade and
// int8 configuration (the only non-default flags a workload passes).
func fastConfig(w *workload) bool { return len(w.daemonArgs) > 0 }

// run produces the per-layer metrics of w: a load slice with the
// daemon's counters, then the traced sample over loopback and replayed
// in-process.
func (lr *layerRun) run(w *workload, sliceDur time.Duration, outDir string) (*workloadResult, map[string]float64, error) {
	r := lr.r
	sr, err := r.runSlice(w, sliceDur, true)
	if err != nil {
		return nil, nil, err
	}
	wr := &workloadResult{}
	wr.add(w, sr)
	m := sr.metrics

	n := traceSample
	if w.spec(r.co, r.seed, 0).class == classStream {
		n = traceSampleStream
	}
	sample := lr.sampleOps(w, n)
	results, err := lr.loopback(w, sample)
	if err != nil {
		return nil, nil, err
	}
	var lat []float64
	for _, res := range results {
		wr.Attempted++
		if res.err != nil {
			wr.Failed++
			wr.Failures = append(wr.Failures, failure{w.name, r.seed, res.k, classNames[res.spec.class], res.err.Error()})
			continue
		}
		lat = append(lat, res.latencyMS*1000)
	}
	if err := lr.quality(m, results); err != nil {
		return nil, nil, err
	}

	// The workload's own system: the artifact opened again, with the
	// daemon's accelerators when the workload boots it with them.
	sys, err := mvpears.Open(r.model)
	if err != nil {
		return nil, nil, err
	}
	if fastConfig(w) {
		if _, _, err := sys.EnableQuantized(); err != nil {
			return nil, nil, err
		}
		if err := sys.EnableCascade(0, 16); err != nil {
			return nil, nil, err
		}
		if _, _, err := lr.engines.EnableQuantized(nil); err != nil {
			return nil, nil, err
		}
		defer lr.engines.DisableQuantized()
	}
	rp, err := newReplayer(lr, w, sys)
	if err != nil {
		return nil, nil, err
	}
	// The additive budget needs layers that run one after another.
	procs := runtime.GOMAXPROCS(1)
	err = rp.replay(sample, true)
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return nil, nil, err
	}
	seqRows := rp.rows
	// The same sample again on every core: what parallel engines buy.
	par, err := newReplayer(lr, w, sys)
	if err != nil {
		return nil, nil, err
	}
	if err := par.replay(sample, false); err != nil {
		return nil, nil, err
	}
	rowMedians(m, seqRows)
	m["server.handler_par_us"] = medianOf(par.rows, "server.handler_us")
	m["detector.detect_par_us"] = medianOf(par.rows, "detector.detect_seq_us")
	if p := m["detector.detect_par_us"]; p > 0 {
		m["detector.parallel_speedup"] = m["detector.detect_seq_us"] / p
	}
	m["vcache.get_ns"] = medianOf(seqRows, "vcache.get_us") * 1000
	m["vcache.put_ns"] = medianOf(seqRows, "vcache.put_us") * 1000
	m["classify.predict_ns"] = medianOf(seqRows, "classify.predict_us") * 1000
	m["stream.push_us_per_hop"] = median(rp.pushes)
	m["stream.final_mismatch"] = float64(rp.finalMismatch)
	m["transport.loopback_us"] = median(lat) - m["server.handler_par_us"]
	m["loadgen.fixture_s"] = r.fixtureSeconds
	m["mvpearsd.bootstrap_s"] = lr.bootstrapSeconds
	m["dsp.mfcc_distinct_configs"] = float64(lr.distinctMFCC)
	if rp.finalMismatch > 0 {
		wr.Failed += rp.finalMismatch
		wr.Failures = append(wr.Failures, failure{w.name, r.seed, 0, "stream", fmt.Sprintf("%d in-process stream finals differ from batch Detect", rp.finalMismatch)})
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = m[d.name]
	}
	b, err := json.Marshal(rp.tr.spans)
	if err != nil {
		return nil, nil, err
	}
	return wr, out, os.WriteFile(filepath.Join(outDir, "trace-"+w.name+".json"), b, 0o644)
}

// loopback sends the sample one request at a time to a fresh daemon and
// checks every response.
func (lr *layerRun) loopback(w *workload, sample []arrival) ([]result, error) {
	r := lr.r
	st, err := r.setUp(w, 1) // keep every verdict: each is checked
	if err != nil {
		return nil, err
	}
	defer st.tearDown()
	var sc scratch
	results := make([]result, 0, len(sample))
	for _, a := range sample {
		results = append(results, st.cl.do(a.k, w.spec(r.co, r.seed, a.k), time.Now(), &sc))
	}
	if err := st.stop(); err != nil {
		return nil, err
	}
	countDupPairs(results)
	if w.reference {
		if err := r.checkReferences(results); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// quality fills the three quality counts from the traced sample: how
// many of the daemon's verdicts differ from the full float64 ensemble's
// (a count, not a failure: on the cascade/int8 path "faster" must never
// silently mean "different"), and what it flags among AEs and benign
// clips. They are functions of the seed alone and must repeat exactly.
func (lr *layerRun) quality(m map[string]float64, results []result) error {
	var flips, aes, aeFlagged, benign, benignFlagged float64
	for _, res := range results {
		if res.err != nil {
			continue
		}
		for j := range res.dets {
			want, err := lr.r.reference(res.spec.parts[j])
			if err != nil {
				return err
			}
			got := res.dets[j].Adversarial
			if got != want.Adversarial {
				flips++
			}
			if res.spec.parts[j].list == 'a' {
				aes++
				if got {
					aeFlagged++
				}
			} else {
				benign++
				if got {
					benignFlagged++
				}
			}
		}
	}
	m["detector.verdict_flips"] = flips
	m["detector.ae_recall"] = aeFlagged / max(aes, 1)
	m["detector.benign_fpr"] = benignFlagged / max(benign, 1)
	return nil
}

// replayer re-runs requests in-process, in the order the daemon runs
// their steps, with a span around every call into a layer.
type replayer struct {
	lr       *layerRun
	w        *workload
	tr       *tracer
	sys      *mvpears.System
	fp       string
	cache    *vcache.Cache[*mvpears.Detection]
	srv      *server.Server
	streams  *mvpears.StreamManager
	rows     []map[string]float64 // per request: row name -> microseconds
	pushes   []float64
	scratch  []byte
	samples  []float64
	layersOn bool

	finalMismatch int
}

func newReplayer(lr *layerRun, w *workload, sys *mvpears.System) (*replayer, error) {
	rp := &replayer{lr: lr, w: w, sys: sys, tr: &tracer{t0: time.Now()}}
	var err error
	if rp.fp, err = sys.ModelFingerprint(); err != nil {
		return nil, err
	}
	rp.cache = vcache.New[*mvpears.Detection](4096, 64<<20)
	// The in-process server is configured like the daemon: access log
	// rendered (and discarded), streaming on.
	rp.srv, err = server.New(server.Config{
		Backend:   sys,
		Logger:    log.New(io.Discard, "", 0),
		AccessLog: io.Discard,
		Stream:    &server.StreamConfig{},
	})
	if err != nil {
		return nil, err
	}
	if rp.streams, err = sys.NewStreamManager(mvpears.StreamOptions{}); err != nil {
		return nil, err
	}
	return rp, nil
}

// replay runs the sample; withLayers adds the per-engine leaf calls
// (the parallel pass only needs the whole-detection and handler times).
func (rp *replayer) replay(sample []arrival, withLayers bool) error {
	defer rp.close()
	rp.layersOn = withLayers
	co, seed := rp.lr.r.co, rp.lr.r.seed
	if rp.w.prime {
		warm := map[string]float64{}
		for _, cl := range co.benign {
			wav := cl.variant(0, nil)
			if err := rp.replayClip(-1, wav, warm); err != nil {
				return err
			}
			if err := rp.handle(-1, "/v1/detect", "audio/wav", wav, warm); err != nil {
				return err
			}
		}
		rp.tr.spans = rp.tr.spans[:0] // priming is not part of the sample
	}
	for req, a := range sample {
		spec := rp.w.spec(co, seed, a.k)
		row := map[string]float64{}
		var err error
		switch spec.class {
		case classStream:
			err = rp.replayStream(req, co.payload(spec.parts[0], nil), row)
		case classBatch:
			var form bytes.Buffer
			mw := multipart.NewWriter(&form)
			for i, p := range spec.parts {
				wav := co.payload(p, nil)
				if err = rp.replayClip(req, wav, row); err != nil {
					break
				}
				fw, ferr := mw.CreateFormFile("file", fmt.Sprintf("p%d.wav", i))
				if ferr != nil {
					return ferr
				}
				fw.Write(wav) // bytes.Buffer writes cannot fail
			}
			if err == nil {
				mw.Close()
				err = rp.handle(req, "/v1/detect/batch", mw.FormDataContentType(), form.Bytes(), row)
			}
		default:
			wav := co.payload(spec.parts[0], nil)
			if err = rp.replayClip(req, wav, row); err == nil {
				err = rp.handle(req, "/v1/detect", "audio/wav", wav, row)
			}
		}
		if err != nil {
			return fmt.Errorf("replaying seed %d index %d: %w", seed, a.k, err)
		}
		rp.rows = append(rp.rows, row)
	}
	rp.derive()
	return nil
}

func (rp *replayer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = rp.srv.Shutdown(ctx) // nothing is in flight; a timeout only leaks an idle pool
	rp.streams.Close()
}

// timed runs fn inside a span and adds its duration to row[name].
func (rp *replayer) timed(name string, req, parent int, row map[string]float64, fn func()) {
	id := rp.tr.begin(name, req, parent)
	fn()
	row[name] += rp.tr.end(id)
}

// replayClip performs the single-clip resolution path of the daemon:
// structural WAV decode, content key, cache lookup, and on a miss float
// decode, detection and cache fill.
func (rp *replayer) replayClip(req int, wav []byte, row map[string]float64) error {
	var (
		pcm  audio.PCM16
		key  string
		det  *mvpears.Detection
		clip *audio.Clip
		hit  bool
		err  error
	)
	root := rp.tr.begin("replay.request", req, -1)
	rp.timed("audio.read_wav_pcm_us", req, root, row, func() {
		pcm, err = audio.ReadWAVPCM(bytes.NewReader(wav), 16<<20, rp.scratch[:0])
	})
	if err != nil {
		return err
	}
	rp.scratch = pcm.Data
	rp.timed("vcache.key_us", req, root, row, func() { key = vcache.KeyPCM16(rp.fp, pcm.SampleRate, pcm.Data) })
	rp.timed("vcache.get_us", req, root, row, func() { det, hit = rp.cache.Get(key) })
	if !hit {
		rp.timed("audio.decode_float_us", req, root, row, func() { clip = pcm.DecodeInto(rp.samples[:0]) })
		rp.samples = clip.Samples
		rp.timed("detector.detect_seq_us", req, root, row, func() { det, err = rp.sys.DetectCtx(context.Background(), clip) })
		if err != nil {
			return err
		}
		rp.timed("vcache.put_us", req, root, row, func() { rp.cache.Put(key, det, 512) })
	}
	rp.tr.end(root)
	if !hit && rp.layersOn {
		return rp.replayLayers(req, clip, det, row)
	}
	return nil
}

// replayLayers times, for the engines that ran in det, the leaf calls a
// detection is made of.
func (rp *replayer) replayLayers(req int, clip *audio.Clip, det *mvpears.Detection, row map[string]float64) error {
	ran := map[string]bool{"DS0": true}
	if det.Cascade != nil {
		for _, n := range det.Cascade.EnginesRun {
			ran[n] = true
		}
	} else {
		for _, n := range rp.sys.AuxiliaryNames() {
			ran[n] = true
		}
	}
	root := rp.tr.begin("replay.layers", req, -1)
	defer rp.tr.end(root)
	var err error
	for _, e := range rp.lr.layers {
		if !ran[e.name] {
			continue
		}
		eng := rp.tr.begin("engine."+e.name, req, root)
		call := map[string]float64{}
		rp.timed("mfcc", req, eng, call, func() { _, err = e.mfcc.Extract(clip.Samples) })
		if err == nil {
			rp.timed("labels", req, eng, call, func() { _, err = e.rec.FrameLabels(clip) })
		}
		if err == nil {
			rp.timed("transcribe", req, eng, call, func() { _, err = e.rec.Transcribe(clip) })
		}
		rp.tr.end(eng)
		if err != nil {
			return err
		}
		// Each call repeats the one before it, so a layer is a difference.
		row["dsp.mfcc_us."+e.name] += call["mfcc"]
		row["dsp.mfcc_us_total"] += call["mfcc"]
		row[forwardRow(e.name)] += call["labels"] - call["mfcc"]
		row["asr.decode_us."+e.name] += call["transcribe"] - call["labels"]
		row["asr.transcribe_us."+e.name] += call["transcribe"]
		row["engines_us"] += call["transcribe"]
	}
	var target string
	var encoded []string
	rp.timed("phonetic.encode_us", req, root, row, func() {
		target = rp.lr.method.Encode(det.Transcriptions["DS0"])
		for _, n := range rp.sys.AuxiliaryNames() {
			if ran[n] {
				encoded = append(encoded, rp.lr.method.Encode(det.Transcriptions[n]))
			}
		}
	})
	rp.timed("similarity.score_us", req, root, row, func() {
		for _, enc := range encoded {
			rp.lr.method.Score(target, enc)
		}
	})
	rp.timed("classify.predict_us", req, root, row, func() { _, err = rp.sys.Classifier().Predict(det.Scores) })
	return err
}

// duplexRecorder lets the streaming handler run against a recorder: it
// asks its ResponseWriter for full duplex before the first write.
type duplexRecorder struct{ *httptest.ResponseRecorder }

func (duplexRecorder) EnableFullDuplex() error { return nil }

// handle runs the whole request through the server's handler chain.
func (rp *replayer) handle(req int, path, contentType string, body []byte, row map[string]float64) error {
	hr := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	hr.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	rp.timed("server.handler_us", req, -1, row, func() { rp.srv.Handler().ServeHTTP(duplexRecorder{rec}, hr) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process %s answered %d: %.200s", path, rec.Code, rec.Body.Bytes())
	}
	return nil
}

// replayStream pushes one session hop by hop through a StreamManager,
// then the same WAV through the streaming handler, and compares the
// in-process final with batch detection on the same samples.
func (rp *replayer) replayStream(req int, wav []byte, row map[string]float64) error {
	clip, err := decodeWAV(wav)
	if err != nil {
		return err
	}
	hop := rp.streams.Config().Hop
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	root := rp.tr.begin("replay.session", req, -1)
	var sess *mvpears.StreamSession
	rp.timed("stream.open_us", req, root, row, func() { sess, err = rp.streams.Open() })
	if err != nil {
		return err
	}
	defer sess.Close()
	windows := 0
	for off := 0; off < len(clip.Samples); off += hop {
		var ws []mvpears.StreamWindow
		id := rp.tr.begin("stream.push", req, root)
		ws, err = sess.Push(context.Background(), clip.Samples[off:min(off+hop, len(clip.Samples))])
		us := rp.tr.end(id)
		if err != nil {
			return err
		}
		rp.pushes = append(rp.pushes, us)
		row["stream.pushes_us"] += us
		windows += len(ws)
	}
	var fin *mvpears.StreamFinal
	rp.timed("stream.finish_us", req, root, row, func() { fin, err = sess.Finish(context.Background()) })
	rp.tr.end(root)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	if windows > 0 {
		row["stream.alloc_kb_per_window"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(windows)
	}
	ref, err := rp.sys.DetectCtx(context.Background(), clip)
	if err != nil {
		return err
	}
	got := rp.sys.DetectionFromStream(fin)
	wire := detectionWire{Adversarial: got.Adversarial, Scores: got.Scores, Transcriptions: got.Transcriptions}
	if sameVerdict(&wire, ref) != nil {
		rp.finalMismatch++
	}
	err = rp.handle(req, "/v1/detect/stream", "audio/wav", wav, row)
	return err
}

// derive fills the per-request rows that are differences of others.
func (rp *replayer) derive() {
	self := selfTimes(rp.tr.spans)
	overhead := map[int]float64{}
	for i, s := range rp.tr.spans {
		if s.Parent == -1 && s.Name != "server.handler_us" {
			overhead[s.Req] += float64(self[i]) / 1e3
		}
	}
	for req, row := range rp.rows {
		handler := row["server.handler_us"]
		front := row["audio.read_wav_pcm_us"] + row["vcache.key_us"] + row["vcache.get_us"] + row["audio.decode_float_us"] + row["vcache.put_us"]
		inner := row["engines_us"] + row["phonetic.encode_us"] + row["similarity.score_us"] + row["classify.predict_us"]
		stream := row["stream.open_us"] + row["stream.pushes_us"] + row["stream.finish_us"]
		leaves := front + inner + stream
		if detect, ok := row["detector.detect_seq_us"]; ok && rp.layersOn {
			row["detector.self_us"] = detect - inner
		}
		row["server.self_us"] = handler - front - row["detector.detect_seq_us"] - stream
		row["budget.unattributed_us"] = handler - leaves
		if handler > 0 {
			row["budget.closure_ratio"] = leaves / handler
		}
		row["budget.trace_overhead_us"] = overhead[req]
	}
}

// rowMedians sets m[name] to the median over the requests that have the
// row, for every per-layer metric measured in microseconds per request.
func rowMedians(m map[string]float64, rows []map[string]float64) {
	for _, d := range perLayer {
		if _, set := m[d.name]; set {
			continue
		}
		m[d.name] = medianOf(rows, d.name)
	}
}

func medianOf(rows []map[string]float64, name string) float64 {
	var vals []float64
	for _, row := range rows {
		if v, ok := row[name]; ok {
			vals = append(vals, v)
		}
	}
	return median(vals)
}
