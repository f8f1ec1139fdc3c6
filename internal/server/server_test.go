package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs/drift"
	"mvpears/internal/stream"
)

// stubBackend lets handler tests script detection behavior (blocking,
// panics, fixed verdicts) without training real engines.
type stubBackend struct {
	rate   int
	aux    []string
	detect func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error)
}

func (b *stubBackend) DetectCtx(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
	return b.detect(ctx, clip)
}

func (b *stubBackend) DetectBatchCtx(ctx context.Context, clips []*mvpears.Clip) ([]*mvpears.Detection, error) {
	out := make([]*mvpears.Detection, len(clips))
	for i, clip := range clips {
		det, err := b.detect(ctx, clip)
		if err != nil {
			return nil, err
		}
		out[i] = det
	}
	return out, nil
}

func (b *stubBackend) SampleRate() int                                      { return b.rate }
func (b *stubBackend) AuxiliaryNames() []string                             { return b.aux }
func (b *stubBackend) TargetName() string                                   { return "target" }
func (b *stubBackend) Explain(*mvpears.Detection) *mvpears.Explanation      { return nil }
func (b *stubBackend) DriftReference() *drift.Reference                     { return nil }
func (b *stubBackend) DetectionFromStream(*stream.Final) *mvpears.Detection { return nil }

func (b *stubBackend) NewStreamManager(mvpears.StreamOptions) (*stream.Manager, error) {
	return nil, errors.New("stub backend does not stream")
}

// benignDetection fabricates a plausible benign verdict.
func benignDetection() *mvpears.Detection {
	return &mvpears.Detection{
		Adversarial:    false,
		Scores:         []float64{0.97, 0.95},
		Transcriptions: map[string]string{"DS0": "open the door", "DS1": "open the door", "GCS": "open the door"},
		Timing: mvpears.DetectionTiming{
			Recognition: 4 * time.Millisecond,
			Similarity:  20 * time.Microsecond,
			Classify:    2 * time.Microsecond,
		},
	}
}

func instantStub() *stubBackend {
	return &stubBackend{
		rate: 8000,
		aux:  []string{"DS1", "GCS"},
		detect: func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
			return benignDetection(), nil
		},
	}
}

// newTestServer builds a Server + httptest front end around the backend.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// wavBody renders a small WAV at the given rate.
func wavBody(t testing.TB, rate, n int) []byte {
	t.Helper()
	c := audio.NewClip(rate, n)
	for i := range c.Samples {
		c.Samples[i] = float64(i%64)/64 - 0.5
	}
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postWAV(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/detect", "audio/wav", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestDetectHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	resp := postWAV(t, ts.URL, wavBody(t, 8000, 256))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	det := decodeBody[DetectionJSON](t, resp)
	if det.Verdict != VerdictBenign || det.Adversarial {
		t.Fatalf("verdict %+v", det)
	}
	if len(det.Scores) != 2 || det.Scores[0] != 0.97 {
		t.Fatalf("scores %v", det.Scores)
	}
	if det.Transcriptions["DS0"] != "open the door" {
		t.Fatalf("transcriptions %v", det.Transcriptions)
	}
	if det.Timing.RecognitionMS != 4 {
		t.Fatalf("timing %+v", det.Timing)
	}
	if len(det.Auxiliaries) != 2 {
		t.Fatalf("auxiliaries %v", det.Auxiliaries)
	}
}

func TestDetectResamplesUploads(t *testing.T) {
	stub := instantStub()
	var gotRate int
	inner := stub.detect
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		gotRate = clip.SampleRate
		return inner(ctx, clip)
	}
	_, ts := newTestServer(t, Config{Backend: stub})
	resp := postWAV(t, ts.URL, wavBody(t, 16000, 512))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gotRate != 8000 {
		t.Fatalf("backend saw %d Hz, want resampled 8000", gotRate)
	}

	// A clip that cannot be resampled is a bad upload, not a failed
	// detection: the engine's decode error answers 400.
	broken := instantStub()
	broken.rate = 0
	_, ts = newTestServer(t, Config{Backend: broken})
	if resp := postWAV(t, ts.URL, wavBody(t, 16000, 512)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unresamplable upload: status %d, want 400", resp.StatusCode)
	}
}

func TestDetectRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub(), MaxUploadBytes: 1024})
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"garbage", []byte("definitely not audio"), http.StatusBadRequest},
		{"empty", nil, http.StatusBadRequest},
		{"truncated", wavBody(t, 8000, 256)[:50], http.StatusBadRequest},
		{"oversized", wavBody(t, 8000, 4096), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postWAV(t, ts.URL, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.want)
			}
			e := decodeBody[ErrorJSON](t, resp)
			if e.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}
}

func TestDetectBackendError(t *testing.T) {
	stub := instantStub()
	stub.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		return nil, fmt.Errorf("engine exploded")
	}
	_, ts := newTestServer(t, Config{Backend: stub})
	resp := postWAV(t, ts.URL, wavBody(t, 8000, 256))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
}

func TestDetectPanicRecovery(t *testing.T) {
	stub := instantStub()
	stub.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		panic("handler bug")
	}
	s, ts := newTestServer(t, Config{Backend: stub})
	resp := postWAV(t, ts.URL, wavBody(t, 8000, 256))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if n := s.m.counter(mPanics).Value(); n != 1 {
		t.Fatalf("panic counter %d", n)
	}
	// The server must still answer after a panic.
	if resp := postWAV(t, ts.URL, wavBody(t, 8000, 256)); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("second request status %d", resp.StatusCode)
	}
}

// TestQueueSaturationYields429 is the overload acceptance check: with one
// worker and a one-slot queue, the third concurrent request must bounce
// with 429 + Retry-After instead of growing goroutines.
func TestQueueSaturationYields429(t *testing.T) {
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
	body := wavBody(t, 8000, 256)

	results := make(chan int, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/detect", "audio/wav", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		results <- resp.StatusCode
	}
	go post() // occupies the worker
	<-entered
	go post() // occupies the queue slot
	waitFor(t, func() bool { return s.pool.QueueLen() == 1 })

	resp := postWAV(t, ts.URL, body) // overload
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := s.m.counter(mRejected, rejectQueueFull).Value(); n != 1 {
		t.Fatalf("rejected counter %d", n)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d", code)
		}
	}
}

func TestRequestDeadlineYields504(t *testing.T) {
	stub := instantStub()
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		<-ctx.Done() // a well-behaved backend returns when cancelled
		return nil, ctx.Err()
	}
	_, ts := newTestServer(t, Config{Backend: stub, RequestTimeout: 30 * time.Millisecond})
	resp := postWAV(t, ts.URL, wavBody(t, 8000, 256))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

func TestBatchDetect(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, name := range []string{"a.wav", "b.wav"} {
		fw, err := mw.CreateFormFile("file", name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(wavBody(t, 8000, 256))
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/detect/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	batch := decodeBody[BatchResponseJSON](t, resp)
	if len(batch.Results) != 2 {
		t.Fatalf("results %d", len(batch.Results))
	}
	if batch.Results[0].File != "a.wav" || batch.Results[1].File != "b.wav" {
		t.Fatalf("file names %q %q", batch.Results[0].File, batch.Results[1].File)
	}
	if batch.Results[0].Verdict != VerdictBenign {
		t.Fatalf("verdict %q", batch.Results[0].Verdict)
	}
}

func TestBatchRejectsTooManyFiles(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub(), MaxBatchFiles: 2})
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i := 0; i < 3; i++ {
		fw, _ := mw.CreateFormFile("file", fmt.Sprintf("%d.wav", i))
		fw.Write(wavBody(t, 8000, 64))
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/detect/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestBatchRejectsEmptyAndNonMultipart(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	resp, err := http.Post(ts.URL+"/v1/detect/batch", "audio/wav", bytes.NewReader(wavBody(t, 8000, 64)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-multipart status %d, want 400", resp.StatusCode)
	}
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mw.Close()
	resp, err = http.Post(ts.URL+"/v1/detect/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d, want 400", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{Backend: instantStub()})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
	// Draining flips readiness (but not liveness).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz status %d, want 200", resp.StatusCode)
	}
	// And new detection work is refused.
	resp = postWAV(t, ts.URL, wavBody(t, 8000, 64))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain detect status %d, want 503", resp.StatusCode)
	}
}

// TestShutdownDrainsInFlight asserts graceful drain: a request already
// running when Shutdown starts must complete with 200.
func TestShutdownDrainsInFlight(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	stub := instantStub()
	inner := stub.detect
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		entered <- struct{}{}
		<-block
		return inner(ctx, clip)
	}
	s, ts := newTestServer(t, Config{Backend: stub, Workers: 1})
	result := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/detect", "audio/wav", bytes.NewReader(wavBody(t, 8000, 256)))
		if err != nil {
			t.Error(err)
			result <- 0
			return
		}
		defer resp.Body.Close()
		result <- resp.StatusCode
	}()
	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the in-flight job, not kill it.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a job was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-result; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestShutdownWaitsForLeaderWhoseClientLeft: a flight leader's client
// hangs up while a follower waits on the same key. The detection goes on
// for the follower, which gets its 200, and Shutdown does not return until
// that detection has ended.
func TestShutdownWaitsForLeaderWhoseClientLeft(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	stub := instantStub()
	inner := stub.detect
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		entered <- struct{}{}
		<-block
		return inner(ctx, clip)
	}
	s, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}, Workers: 1})
	body := wavBody(t, 8000, 256)

	leaderCtx, leave := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()
	<-entered
	follower := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/detect", "audio/wav", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			follower <- 0
			return
		}
		defer resp.Body.Close()
		follower <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.flight.Collapsed() == 1 })
	leave()
	if err := <-leaderDone; err == nil {
		t.Fatal("the leader's request completed although its client hung up")
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while the detection was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if code := <-follower; code != http.StatusOK {
		t.Fatalf("follower finished with %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	postWAV(t, ts.URL, wavBody(t, 8000, 256))
	postWAV(t, ts.URL, []byte("garbage"))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		`mvpears_requests_total{route="detect",code="200"} 1`,
		`mvpears_requests_total{route="detect",code="400"} 1`,
		`mvpears_detections_total{verdict="benign"} 1`,
		"mvpears_request_duration_seconds_bucket",
		`mvpears_detect_stage_seconds_count{stage="recognition"} 1`,
		// benignDetection's 20 µs similarity and 2 µs classify resolve
		// below the request-latency buckets' 1 ms floor.
		`mvpears_detect_stage_seconds_bucket{stage="similarity",le="0.0001"} 1`,
		`mvpears_detect_stage_seconds_bucket{stage="classify",le="0.0001"} 1`,
		`mvpears_detect_stage_seconds_bucket{stage="recognition",le="0.0001"} 0`,
		"mvpears_in_flight_requests",
		"mvpears_queue_depth 0",
		`mvpears_rejected_total{reason="queue_full"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
}
