package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mvpears"
	"mvpears/internal/obs"
	"mvpears/internal/vcache"
)

// fpStub gives a stubBackend a model fingerprint, enabling the verdict
// cache (plain stubBackend leaves it disabled, keeping the other handler
// tests cache-free).
type fpStub struct {
	*stubBackend
	fp string
}

func (b *fpStub) ModelFingerprint() (string, error) { return b.fp, nil }

// countingStub returns an instant benign stub whose detect invocations
// are counted.
func countingStub() (*stubBackend, *atomic.Int64) {
	var calls atomic.Int64
	b := instantStub()
	b.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		calls.Add(1)
		return benignDetection(), nil
	}
	return b, &calls
}

func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestDetectCacheHitSkipsBackend(t *testing.T) {
	stub, calls := countingStub()
	s, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}})
	if s.vc == nil {
		t.Fatal("fingerprinted backend did not enable the verdict cache")
	}
	body := wavBody(t, 8000, 256)

	first := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, body))
	if first.Cached {
		t.Fatal("first request served from an empty cache")
	}
	second := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, body))
	if !second.Cached {
		t.Fatal("identical re-upload was not served from the cache")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend ran %d detections, want 1", got)
	}
	if second.Verdict != first.Verdict || len(second.Scores) != len(first.Scores) {
		t.Fatalf("cached verdict diverged: %+v vs %+v", second, first)
	}

	metrics := metricsBody(t, ts.URL)
	for _, want := range []string{
		"mvpears_cache_hits_total 1",
		"mvpears_cache_misses_total 1",
		"mvpears_cache_entries 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDetectDuplicateStormRunsOneDetection is the singleflight acceptance
// check: a 16-way storm of identical uploads performs exactly one backend
// detection; the other fifteen share the leader's flight.
func TestDetectDuplicateStormRunsOneDetection(t *testing.T) {
	const storm = 16
	release := make(chan struct{})
	var calls atomic.Int64
	stub := instantStub()
	stub.detect = func(ctx context.Context, _ *mvpears.Clip) (*mvpears.Detection, error) {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return benignDetection(), nil
	}
	var logBuf syncBuffer
	s, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}, Workers: 4, AccessLog: &logBuf})
	body := wavBody(t, 8000, 256)

	type result struct {
		code   int
		cached bool
		err    error
	}
	results := make(chan result, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/detect", "audio/wav", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var det DetectionJSON
			err = json.NewDecoder(resp.Body).Decode(&det)
			results <- result{code: resp.StatusCode, cached: det.Cached, err: err}
		}()
	}
	// Every non-leader must have joined the leader's flight before the
	// detection is allowed to finish — that is the collapse itself.
	waitFor(t, func() bool { return s.flight.Collapsed() >= storm-1 })
	close(release)
	wg.Wait()
	close(results)

	var cachedCount int
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("status %d, want 200", r.code)
		}
		if r.cached {
			cachedCount++
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("storm of %d ran %d detections, want exactly 1", storm, got)
	}
	if cachedCount != storm-1 {
		t.Fatalf("%d responses marked cached, want %d flight-shared", cachedCount, storm-1)
	}
	if !strings.Contains(metricsBody(t, ts.URL), fmt.Sprintf("mvpears_singleflight_collapsed_total %d", storm-1)) {
		t.Error("metrics missing the singleflight collapse count")
	}
	// Only the leader float-decodes the upload: the followers are served
	// the shared verdict without ever needing samples.
	var lines []detectLogLine
	waitFor(t, func() bool {
		lines = detectLogLines(t, &logBuf)
		return len(lines) >= storm
	})
	decoded := 0
	for _, l := range lines {
		if stages, ok := l.rec["stages"].(map[string]any); ok && stages[obs.StageDecode+"_ms"] != nil {
			decoded++
		}
	}
	if decoded != 1 {
		t.Fatalf("%d of %d access-log lines carry a decode stage, want 1 (the leader's)", decoded, len(lines))
	}
}

func TestBatchServesFromCache(t *testing.T) {
	stub, calls := countingStub()
	_, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}})
	primed := wavBody(t, 8000, 256)
	fresh := wavBody(t, 8000, 512)
	postWAV(t, ts.URL, primed) // populate the cache (1 detection)

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for name, body := range map[string][]byte{"primed.wav": primed, "fresh.wav": fresh} {
		fw, err := mw.CreateFormFile("file", name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(body)
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
	for _, res := range batch.Results {
		switch res.File {
		case "primed.wav":
			if !res.Cached {
				t.Error("primed part was not served from the cache")
			}
		case "fresh.wav":
			if res.Cached {
				t.Error("unseen part claims to be cached")
			}
		default:
			t.Errorf("unexpected file %q", res.File)
		}
	}
	// One detection primed the cache, one served the batch's only miss.
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend ran %d detections, want 2", got)
	}
}

// TestCacheIsModelScoped shares one cache between two servers fronting
// different models: the key's fingerprint prefix must keep their verdicts
// apart.
func TestCacheIsModelScoped(t *testing.T) {
	shared := vcache.New[*verdictEntry](64, 1<<20)
	stubA, callsA := countingStub()
	stubB, callsB := countingStub()
	_, tsA := newTestServer(t, Config{Backend: &fpStub{stubA, "model-a"}, Cache: shared})
	_, tsB := newTestServer(t, Config{Backend: &fpStub{stubB, "model-b"}, Cache: shared})
	body := wavBody(t, 8000, 256)

	postWAV(t, tsA.URL, body)
	if det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body)); det.Cached {
		t.Fatal("model B served model A's cached verdict")
	}
	if got := callsB.Load(); got != 1 {
		t.Fatalf("model B ran %d detections, want 1", got)
	}
	// Same model, same bytes: still a hit through the shared cache.
	if det := decodeBody[DetectionJSON](t, postWAV(t, tsA.URL, body)); !det.Cached {
		t.Fatal("model A re-upload missed its own cached verdict")
	}
	if got := callsA.Load(); got != 1 {
		t.Fatalf("model A ran %d detections, want 1", got)
	}
}

func TestDetectErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	stub := instantStub()
	stub.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("engine exploded")
		}
		return benignDetection(), nil
	}
	_, ts := newTestServer(t, Config{
		Backend: &fpStub{stub, "model-a"},
		Logger:  log.New(io.Discard, "", 0),
	})
	body := wavBody(t, 8000, 256)

	if resp := postWAV(t, ts.URL, body); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	det := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, body))
	if det.Cached {
		t.Fatal("failed detection was cached")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("backend ran %d detections, want a retry after the failure", got)
	}
}
