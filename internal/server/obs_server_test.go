package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
)

// TestHistogramObserveGuards pins the Observe input guard: NaN is dropped
// entirely (it would poison the sum forever) and negative values clamp to
// zero (they land in every bucket but cannot drag the sum below zero).
func TestHistogramObserveGuards(t *testing.T) {
	r := newRegistry([]Family{
		histogram("latency_seconds", "Latency.", "", []float64{1}),
		histogram("stage_seconds", "Stages.", "", []float64{1}, "stage"),
	}, nil)
	h := r.histogram(0)
	h.Observe(math.NaN())
	if _, _, n := h.snapshot(); n != 0 {
		t.Fatalf("NaN was counted: count %d", n)
	}
	h.Observe(-5)
	h.Observe(0.5)
	mustContain(t, render(t, r),
		`latency_seconds_bucket{le="1"} 2`,
		"latency_seconds_sum 0.5",
		"latency_seconds_count 2",
	)
	// Labeled children share the same guard.
	r.histogram(1, "decode").Observe(math.NaN())
	r.histogram(1, "decode").Observe(math.Inf(-1))
	mustContain(t, render(t, r), `stage_seconds_count{stage="decode"} 1`)
}

// TestVecConcurrentCreateAndRender hammers label-child creation from many
// goroutines while rendering concurrently; run under -race this pins the
// child maps' locking.
func TestVecConcurrentCreateAndRender(t *testing.T) {
	r := newRegistry([]Family{
		counter("requests_total", "Requests.", "", "route", "code"),
		histogram("stage_seconds", "Stages.", "", []float64{0.1, 1}, "stage"),
	}, nil)
	stages := []string{"decode", "transcribe", "phonetic", "similarity", "classify"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.counter(0, "detect", "200").Inc()
				r.counter(0, "detect", "429").Inc()
				r.histogram(1, stages[(g+i)%len(stages)]).Observe(float64(i) / 100)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.Render(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	out := render(t, r)
	mustContain(t, out, `requests_total{route="detect",code="200"} 1600`)
	for _, st := range stages {
		mustContain(t, out, `stage_seconds_count{stage="`+st+`"}`)
	}
}

// TestEngineLabelEscaping serves a backend whose auxiliary names contain
// quotes and backslashes and asserts the exposition escapes them; a raw
// engine name must never corrupt the metrics text format.
func TestEngineLabelEscaping(t *testing.T) {
	stub := instantStub()
	stub.aux = []string{`D"S1`, `GC\S`}
	_, ts := newTestServer(t, Config{Backend: stub})
	postWAV(t, ts.URL, wavBody(t, 8000, 256))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mustContain(t, string(raw),
		`mvpears_engine_similarity_count{engine="D\"S1"} 1`,
		`mvpears_engine_similarity_count{engine="GC\\S"} 1`,
	)
}

// TestRequestIDEcho pins the request-ID contract: a usable client ID is
// echoed back, a missing one is minted, and every status — 200, 400
// decode errors, 429 overload — carries the header and repeats it in the
// JSON error body.
func TestRequestIDEcho(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})

	// Client-supplied ID round-trips on success.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(wavBody(t, 8000, 256)))
	req.Header.Set("X-Request-ID", "client-abc-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Fatalf("echoed ID %q, want client-supplied", got)
	}

	// An unusable ID (injection attempt) is replaced with a minted one.
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(wavBody(t, 8000, 256)))
	req.Header.Set("X-Request-ID", `bad"id`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got == "" || got == `bad"id` {
		t.Fatalf("unusable client ID not replaced: %q", got)
	}

	// Error responses mint an ID and repeat it in the body.
	resp = postWAV(t, ts.URL, []byte("garbage"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	hdrID := resp.Header.Get("X-Request-ID")
	if hdrID == "" {
		t.Fatal("400 without X-Request-ID header")
	}
	e := decodeBody[ErrorJSON](t, resp)
	if e.RequestID != hdrID {
		t.Fatalf("body request_id %q != header %q", e.RequestID, hdrID)
	}
}

// TestRequestIDOn429 saturates a one-worker, one-slot server and asserts
// the overload rejection still carries the request ID.
func TestRequestIDOn429(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	stub := instantStub()
	inner := stub.detect
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		entered <- struct{}{}
		<-block
		return inner(ctx, clip)
	}
	s, ts := newTestServer(t, Config{Backend: stub, Workers: 1, QueueDepth: 1})
	defer close(block)
	body := wavBody(t, 8000, 256)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/detect", "audio/wav", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	<-entered
	waitFor(t, func() bool { return s.pool.QueueLen() == 1 })

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "overload-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "overload-7" {
		t.Fatalf("429 echoed %q", got)
	}
	e := decodeBody[ErrorJSON](t, resp)
	if e.RequestID != "overload-7" {
		t.Fatalf("429 body request_id %q", e.RequestID)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing access logs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestAccessLogRecord posts one request through a server with the access
// log enabled and asserts the JSON line carries the request ID, route,
// verdict, and per-stage timings.
func TestAccessLogRecord(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Backend: instantStub(), AccessLog: &buf})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(wavBody(t, 8000, 256)))
	req.Header.Set("X-Request-ID", "log-me-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The log line is written by the middleware's defer, which can land
	// just after the client sees the response.
	waitFor(t, func() bool { return strings.Contains(buf.String(), "log-me-1") })
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
	}
	if rec["request_id"] != "log-me-1" || rec["route"] != "detect" || rec["status"] != float64(200) {
		t.Fatalf("log record %v", rec)
	}
	if rec["verdict"] != VerdictBenign {
		t.Fatalf("log verdict %v", rec["verdict"])
	}
	stages, ok := rec["stages"].(map[string]any)
	if !ok {
		t.Fatalf("log record missing stages group: %v", rec)
	}
	if _, ok := stages[obs.StageDecode+"_ms"]; !ok {
		t.Fatalf("stages missing decode: %v", stages)
	}
}

// TestLogSampleZeroLogsOnlySlowAndErrors pins the sampling contract at its
// edge: a rate of 0 logs slow requests and 5xx responses only, while a
// Config that leaves the rate unset logs every request.
func TestLogSampleZeroLogsOnlySlowAndErrors(t *testing.T) {
	stub := instantStub()
	stub.detect = func(_ context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		switch len(clip.Samples) {
		case 300:
			time.Sleep(60 * time.Millisecond)
		case 400:
			return nil, errors.New("engine exploded")
		}
		return benignDetection(), nil
	}
	logLines := func(rate *float64, sizes []int) int {
		t.Helper()
		var buf syncBuffer
		s, err := New(Config{
			Backend:              stub,
			Logger:               log.New(io.Discard, "", 0),
			AccessLog:            &buf,
			LogSampleRate:        rate,
			SlowRequestThreshold: 30 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		for _, n := range sizes {
			io.Copy(io.Discard, postWAV(t, ts.URL, wavBody(t, 8000, n)).Body)
		}
		ts.Close() // waits for every handler, and so every log line
		return strings.Count(buf.String(), "\n")
	}
	sizes := []int{300, 400}
	for i := 0; i < 20; i++ {
		sizes = append(sizes, 256+i)
	}
	zero := 0.0
	if got := logLines(&zero, sizes); got != 2 {
		t.Errorf("rate 0 wrote %d access-log lines, want 2 (the slow request and the 500)", got)
	}
	if got := logLines(nil, sizes); got != len(sizes) {
		t.Errorf("unset rate wrote %d access-log lines, want all %d", got, len(sizes))
	}
}

// TestAuditSinkRecordsAdversarial wires an audit sink into the server and
// asserts adversarial verdicts (and only those) are appended as JSONL.
func TestAuditSinkRecordsAdversarial(t *testing.T) {
	adversarial := false
	stub := instantStub()
	stub.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		det := benignDetection()
		det.Adversarial = adversarial
		if adversarial {
			det.Scores = []float64{0.2, 0.9}
		}
		return det, nil
	}
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	sink, err := obs.OpenAuditSink(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	_, ts := newTestServer(t, Config{Backend: stub, Audit: sink})

	postWAV(t, ts.URL, wavBody(t, 8000, 256)) // benign: not audited
	adversarial = true
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(wavBody(t, 8000, 512)))
	req.Header.Set("X-Request-ID", "audit-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("audit lines %d, want 1 (benign must not be audited):\n%s", len(lines), raw)
	}
	var entry obs.AuditEntry
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.RequestID != "audit-1" || entry.Verdict != VerdictAdversarial {
		t.Fatalf("audit entry %+v", entry)
	}
	if entry.MinScore != 0.2 || entry.MinEngine != "DS1" {
		t.Fatalf("audit min %q=%v", entry.MinEngine, entry.MinScore)
	}
}

// TestAdminHandler exercises the operator endpoint set: /infoz identity,
// pprof index, metrics, and liveness.
func TestAdminHandler(t *testing.T) {
	s, err := New(Config{Backend: instantStub(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.AdminHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/infoz")
	if err != nil {
		t.Fatal(err)
	}
	info := decodeBody[InfoJSON](t, resp)
	resp.Body.Close()
	if info.SampleRate != 8000 || info.Workers != 3 || info.GoVersion == "" {
		t.Fatalf("infoz %+v", info)
	}
	if len(info.Auxiliaries) != 2 {
		t.Fatalf("infoz auxiliaries %v", info.Auxiliaries)
	}
	for _, path := range []string{"/debug/pprof/", "/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
}

// TestE2EExplainAndStageMetrics is the observability acceptance scenario
// on a real trained system: a traced ?explain=1 request returns the exact
// per-engine evidence the detector computed (bit-for-bit score equality),
// a repeat of the same upload is answered from the verdict cache with an
// identical after-the-fact explanation, and the two requests' slow-log
// lines carry one span per pipeline stage and one transcribe:<engine> span
// per engine, all from the fresh detection.
func TestE2EExplainAndStageMetrics(t *testing.T) {
	sys := e2eSystem(t)
	buf := &syncBuffer{}
	s, err := New(Config{Backend: sys, Workers: 2, AccessLog: buf, SlowRequestThreshold: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	clip, err := sys.GenerateSpeech("the door is open", 123)
	if err != nil {
		t.Fatal(err)
	}
	wav := encodeWAV(t, clip)
	decoded, err := audio.ReadWAV(bytes.NewReader(wav))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectCtx(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	wantExp := sys.Explain(want)

	post := func() DetectionJSON {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/detect?explain=1", "audio/wav", bytes.NewReader(wav))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		return decodeBody[DetectionJSON](t, resp)
	}
	checkExplanation := func(got DetectionJSON) {
		t.Helper()
		exp := got.Explanation
		if exp == nil {
			t.Fatal("?explain=1 response has no explanation")
		}
		if exp.Method != wantExp.Method {
			t.Fatalf("method %q, want %q", exp.Method, wantExp.Method)
		}
		aux := sys.AuxiliaryNames()
		if len(exp.Engines) != len(aux)+1 {
			t.Fatalf("explanation engines %d, want target+%d", len(exp.Engines), len(aux))
		}
		if exp.Engines[0].Phonetic != wantExp.Target.Phonetic || exp.Engines[0].Similarity != nil {
			t.Fatalf("target evidence %+v", exp.Engines[0])
		}
		for i, name := range aux {
			ev := exp.Engines[i+1]
			if ev.Engine != name {
				t.Fatalf("engine %d is %q, want %q", i, ev.Engine, name)
			}
			// Bit-for-bit: the explanation's score vector must be exactly
			// the detector's internal scores, not a recomputation.
			if ev.Similarity == nil || *ev.Similarity != want.Scores[i] {
				t.Fatalf("%s similarity %v, want exactly %v", name, ev.Similarity, want.Scores[i])
			}
			if ev.Phonetic != wantExp.Auxiliaries[i].Phonetic {
				t.Fatalf("%s phonetic %q, want %q", name, ev.Phonetic, wantExp.Auxiliaries[i].Phonetic)
			}
			if ev.Transcription != want.Transcriptions[name] {
				t.Fatalf("%s transcription %q, want %q", name, ev.Transcription, want.Transcriptions[name])
			}
		}
		if exp.MinSimilarity != wantExp.MinSimilarity || exp.MinEngine != wantExp.MinEngine {
			t.Fatalf("min %q=%v, want %q=%v", exp.MinEngine, exp.MinSimilarity, wantExp.MinEngine, wantExp.MinSimilarity)
		}
	}

	fresh := post()
	if fresh.Cached {
		t.Fatal("first request marked cached")
	}
	checkExplanation(fresh)

	// Same upload again: served from the verdict cache, explanation derived
	// after the fact — and still identical.
	cached := post()
	if !cached.Cached {
		t.Fatal("repeat request not served from cache")
	}
	checkExplanation(cached)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	var lines []detectLogLine
	waitFor(t, func() bool {
		lines = detectLogLines(t, buf)
		return len(lines) >= 2
	})
	spans := map[string]int{}
	for _, l := range lines {
		for _, name := range l.spans {
			spans[name]++
		}
	}
	wantSpans := []string{obs.StageDecode, obs.StageTranscribe, obs.StagePhonetic, obs.StageSimilarity, obs.StageClassify}
	for _, engine := range append([]string{"DS0"}, sys.AuxiliaryNames()...) {
		wantSpans = append(wantSpans, obs.StageTranscribe+":"+engine)
	}
	for _, name := range wantSpans {
		if spans[name] != 1 {
			t.Errorf("span %q logged %d times over %d requests, want once (spans %v)", name, spans[name], len(lines), spans)
		}
	}
	mustContain(t, metrics,
		"mvpears_engine_min_similarity_count 1",
		"mvpears_engine_similarity_count",
	)
}

// TestExplainNotRequestedOmitsEvidence pins the default: without
// ?explain=1 the response carries no explanation object.
func TestExplainNotRequestedOmitsEvidence(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	det := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, wavBody(t, 8000, 256)))
	if det.Explanation != nil {
		t.Fatalf("unexpected explanation: %+v", det.Explanation)
	}
}

// stallReader yields the first n bytes of b, sleeps for pause, then
// yields the rest: a client whose upload stalls mid-body.
type stallReader struct {
	b     []byte
	n     int
	pause time.Duration
}

func (r *stallReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	if r.n == 0 && r.pause > 0 {
		time.Sleep(r.pause)
		r.pause = 0
	}
	k := len(r.b)
	if r.n > 0 {
		k = min(k, r.n)
	}
	k = copy(p, r.b[:k])
	r.b, r.n = r.b[k:], max(r.n-k, 0)
	return k, nil
}

// TestDecodeSpanExcludesUpload sends a /v1/detect body and a
// /v1/detect/batch body that each stall 300 ms after their first 100
// bytes: the transfer is the client's, so the logged decode span must
// stay well under the stall.
func TestDecodeSpanExcludesUpload(t *testing.T) {
	const stall = 300 * time.Millisecond
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Backend: instantStub(), AccessLog: &buf})
	var batch bytes.Buffer
	mw := multipart.NewWriter(&batch)
	fw, err := mw.CreateFormFile("file", "0.wav")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(wavBody(t, 8000, 300))
	mw.Close()
	for _, c := range []struct {
		route, path, contentType string
		body                     []byte
	}{
		{"detect", "/v1/detect", "audio/wav", wavBody(t, 8000, 256)},
		{"detect_batch", "/v1/detect/batch", mw.FormDataContentType(), batch.Bytes()},
	} {
		id := "stall-" + c.route
		// ContentLength -1: the client streams the body as it reads it.
		req, _ := http.NewRequest(http.MethodPost, ts.URL+c.path, &stallReader{b: c.body, n: 100, pause: stall})
		req.ContentLength = -1
		req.Header.Set("Content-Type", c.contentType)
		req.Header.Set("X-Request-ID", id)
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		if took := time.Since(start); took < stall {
			t.Fatalf("%s: answered in %v, before the %v stall ended", c.path, took, stall)
		}
		waitFor(t, func() bool { return strings.Contains(buf.String(), id) })
		var rec struct {
			Stages map[string]float64 `json:"stages"`
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, id) {
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("%s: %v\n%s", c.path, err, line)
				}
			}
		}
		d, ok := rec.Stages[obs.StageDecode+"_ms"]
		if !ok {
			t.Fatalf("%s: no decode stage in %v", c.path, rec.Stages)
		}
		if d > 100 {
			t.Fatalf("%s: decode_ms %v includes the %v upload stall", c.path, d, stall)
		}
	}
}
