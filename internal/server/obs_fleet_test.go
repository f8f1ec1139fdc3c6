package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"mvpears"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
)

// metricValue extracts the value of the first exposition line starting
// with prefix (family name or family{labels}).
func metricValue(t *testing.T, metrics, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok && strings.HasPrefix(rest, " ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metrics missing %q", prefix)
	return 0
}

func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestFleetIdentityMetricsExposed pins the exposition shape of the
// fleet-observability families on a fresh server: identity gauges,
// pre-created rejection reasons, and the drift/probe/audit plumbing.
func TestFleetIdentityMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: instantStub()})
	postWAV(t, ts.URL, wavBody(t, 8000, 256))
	metrics := scrape(t, ts.URL)

	mustContain(t, metrics,
		"mvpears_build_info{",
		"mvpears_model_info{",
		"mvpears_probe_suspicion 0",
		"mvpears_audit_dropped_total 0",
	)
	for _, reason := range []string{rejectQueueFull, rejectStreamSessions, rejectPeerBusy} {
		mustContain(t, metrics, `mvpears_rejected_total{reason="`+reason+`"} 0`)
	}
}

// TestRejectedTotalQueueFull saturates a one-worker, one-slot server and
// asserts the unified rejection counter attributes the 429 to the worker
// queue.
func TestRejectedTotalQueueFull(t *testing.T) {
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

	resp := postWAV(t, ts.URL, body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	io.Copy(io.Discard, resp.Body)
	metrics := scrape(t, ts.URL)
	if v := metricValue(t, metrics, `mvpears_rejected_total{reason="queue_full"}`); v != 1 {
		t.Errorf("queue_full rejections = %v, want 1", v)
	}
	if v := metricValue(t, metrics, `mvpears_rejected_total{reason="stream_sessions"}`); v != 0 {
		t.Errorf("stream_sessions rejections = %v, want 0", v)
	}
}

// driftStub is a scriptable backend that also carries a calibration-time
// drift reference, like a trained *mvpears.System does.
type driftStub struct {
	*stubBackend
	ref *drift.Reference
}

func (b *driftStub) DriftReference() *drift.Reference { return b.ref }

// TestDriftMonitorEndToEnd is the drift acceptance scenario: a backend
// whose calibration reference matches its live benign score distribution
// stays under the drift threshold through a benign replay, then an
// injected shifted score distribution drives mvpears_drift_score over
// the threshold and emits a structured drift event into the audit
// stream.
func TestDriftMonitorEndToEnd(t *testing.T) {
	// Deterministic benign scores near 1 (same generator for reference
	// and live traffic, different seeds).
	gen := func(seed uint64, n int, lo, span float64) []float64 {
		out := make([]float64, n)
		x := seed
		for i := range out {
			x = x*6364136223846793005 + 1442695040888963407
			out[i] = lo + span*float64(x>>40)/float64(1<<24)
		}
		return out
	}
	benignDS1 := gen(1, 512, 0.85, 0.15)
	benignGCS := gen(2, 512, 0.85, 0.15)

	ref := &drift.Reference{Version: 1}
	ref.AddDist("engine:DS1", benignDS1)
	ref.AddDist("engine:GCS", benignGCS)
	mins := make([]float64, 512)
	for i := range mins {
		mins[i] = min(benignDS1[i], benignGCS[i])
	}
	ref.AddDist("min_score", mins)
	ref.AddRate("adversarial_rate", 0)

	// The scripted backend serves scores from a swappable generator.
	var (
		reqN    int
		shifted bool
	)
	stub := instantStub()
	stub.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		det := benignDetection()
		seed := uint64(100 + reqN)
		reqN++
		if shifted {
			det.Scores = []float64{gen(seed, 1, 0.3, 0.2)[0], gen(seed+1, 1, 0.3, 0.2)[0]}
		} else {
			det.Scores = []float64{gen(seed, 1, 0.85, 0.15)[0], gen(seed+1, 1, 0.85, 0.15)[0]}
		}
		return det, nil
	}

	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	sink, err := obs.OpenAuditSink(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	_, ts := newTestServer(t, Config{
		Backend: &driftStub{stubBackend: stub, ref: ref},
		Audit:   sink,
		Drift:   drift.Config{WindowN: 64, MinSamples: 32, EvalEvery: 8, Threshold: 0.25},
	})

	post := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			// Vary the body so no two uploads share a content key.
			resp := postWAV(t, ts.URL, wavBody(t, 8000, 256+i%7))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("detect status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
		}
	}

	// Benign replay: live scores match the calibration reference.
	post(48)
	metrics := scrape(t, ts.URL)
	for _, fam := range []string{"engine:DS1", "engine:GCS", "min_score"} {
		if v := metricValue(t, metrics, `mvpears_drift_score{family="`+fam+`"}`); v >= 0.25 {
			t.Errorf("benign replay drift_score{%s} = %v, want under 0.25", fam, v)
		}
	}
	if raw, _ := os.ReadFile(auditPath); strings.Contains(string(raw), `"drift"`) {
		t.Fatalf("benign replay emitted a drift audit event:\n%s", raw)
	}

	// Injected shift: scores collapse to [0.3, 0.5) — the transferable-AE
	// signature the monitor exists to catch.
	shifted = true
	post(96)
	metrics = scrape(t, ts.URL)
	for _, fam := range []string{"engine:DS1", "engine:GCS"} {
		if v := metricValue(t, metrics, `mvpears_drift_score{family="`+fam+`"}`); v <= 0.25 {
			t.Errorf("shifted drift_score{%s} = %v, want over 0.25", fam, v)
		}
	}

	raw, err := os.ReadFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.DriftEvent
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev obs.DriftEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad audit line %q: %v", line, err)
		}
		if ev.Event == "drift" {
			events = append(events, ev)
		}
	}
	if len(events) == 0 {
		t.Fatal("shifted distribution emitted no drift audit event")
	}
	for _, ev := range events {
		if ev.Score <= ev.Threshold || ev.Samples == 0 || !strings.Contains(ev.Family+" ", ":") && ev.Family != "min_score" {
			t.Errorf("malformed drift event %+v", ev)
		}
	}
}

// TestStatuszPage renders the operator status page and checks each
// section: build/model identity, cluster state, and drift verdicts.
func TestStatuszPage(t *testing.T) {
	s, err := New(Config{Backend: instantStub(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.AdminHandler())
	defer ts.Close()

	// Put one request through the front handler so drift families exist.
	front := httptest.NewServer(s.Handler())
	defer front.Close()
	postWAV(t, front.URL, wavBody(t, 8000, 256))

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/statusz Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	page := string(raw)
	for _, want := range []string{
		"build:",
		"go=" + runtime.Version(),
		"model:",
		"probe: suspicion=",
		"cluster",
		"disabled", // no cluster configured
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/statusz missing %q:\n%s", want, page)
		}
	}
	// instantStub carries no drift reference: families observed so far
	// must render as unreferenced, never as drifted.
	if strings.Contains(page, "DRIFTED") {
		t.Errorf("/statusz reports drift on a fresh server:\n%s", page)
	}
}
