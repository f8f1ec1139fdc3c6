package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
	"mvpears/internal/stream"
	"mvpears/internal/vcache"
)

// postBatch POSTs the given WAV bodies as one multipart batch ("0.wav",
// "1.wav", ...) and decodes the response.
func postBatch(t *testing.T, url string, wavs ...[]byte) BatchResponseJSON {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, wav := range wavs {
		fw, err := mw.CreateFormFile("file", strconv.Itoa(i)+".wav")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(wav)
	}
	mw.Close()
	resp, err := http.Post(url, mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, b)
	}
	return decodeBody[BatchResponseJSON](t, resp)
}

// TestLeaderReprobeAnswersCached is the duplicate-detection race, made
// deterministic: a request that missed the cache just before an identical
// flight completed enters the chain below the cache tier with the verdict
// already stored. The flight it then leads must find it there — no second
// detection, no second counted miss.
func TestLeaderReprobeAnswersCached(t *testing.T) {
	stub, calls := countingStub()
	s, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}})
	body := wavBody(t, 8000, 256)
	if first := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, body)); first.Cached {
		t.Fatal("first request served from an empty cache")
	}

	st := s.state()
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := vcache.KeyPCM16(st.modelFP, pcm.SampleRate, pcm.Data)
	eng := engine(func(ctx context.Context) (*mvpears.Detection, error) {
		return st.backend.DetectCtx(ctx, pcm.DecodeInto(nil))
	})
	e, _, how, err := s.resolveMissed(context.Background(), key, nil, eng)
	if err != nil || e == nil {
		t.Fatalf("resolveMissed = %v, %v", e, err)
	}
	if how != howCached {
		t.Fatalf("how = %d, want howCached: the leader did not look the key up again", how)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend ran %d detections, want 1", got)
	}
	metrics := scrape(t, ts.URL)
	if got := metricValue(t, metrics, "mvpears_cache_misses_total"); got != 1 {
		t.Fatalf("mvpears_cache_misses_total = %v, want 1 (one never-seen request)", got)
	}
}

// TestProbeWatchSeesEveryUploadRoute sends the same mutate-one-sample
// campaign through /v1/detect and through /v1/detect/batch: both must
// raise mvpears_probe_suspicion.
func TestProbeWatchSeesEveryUploadRoute(t *testing.T) {
	// Mutants differ from the base in one sample's low byte, which the
	// coarse perceptual key ignores and the exact content key does not.
	base := wavBody(t, 8000, 2048)
	campaign := [][]byte{base}
	for i := 1; i <= 8; i++ {
		mutant := append([]byte(nil), base...)
		mutant[len(mutant)-2*i] ^= 1
		campaign = append(campaign, mutant)
	}
	for _, tc := range []struct {
		route string
		send  func(t *testing.T, url string, wav []byte)
	}{
		{"detect", func(t *testing.T, url string, wav []byte) { postWAV(t, url, wav) }},
		{"detect_batch", func(t *testing.T, url string, wav []byte) { postBatch(t, url+"/v1/detect/batch", wav) }},
	} {
		t.Run(tc.route, func(t *testing.T) {
			stub, _ := countingStub()
			_, ts := newTestServer(t, Config{Backend: &fpStub{stub, "model-a"}})
			if got := metricValue(t, scrape(t, ts.URL), "mvpears_probe_suspicion"); got != 0 {
				t.Fatalf("idle suspicion %v, want 0", got)
			}
			for _, wav := range campaign {
				tc.send(t, ts.URL, wav)
			}
			if got := metricValue(t, scrape(t, ts.URL), "mvpears_probe_suspicion"); got <= 0 {
				t.Fatalf("mvpears_probe_suspicion = %v after a near-duplicate campaign on %s, want > 0", got, tc.route)
			}
		})
	}
}

// countingSystem wraps the trained test system: it counts backend calls,
// can hold single detections at a gate (to line up a shared flight), and
// marks every verdict adversarial so each one must be audited.
type countingSystem struct {
	*mvpears.System
	calls atomic.Int64
	gate  atomic.Pointer[chan struct{}] // nil = do not block
}

func markAdversarial(det *mvpears.Detection) *mvpears.Detection {
	if det == nil {
		return nil
	}
	d := *det
	d.Adversarial = true
	return &d
}

func (c *countingSystem) DetectCtx(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
	c.calls.Add(1)
	if gate := c.gate.Load(); gate != nil {
		<-*gate
	}
	det, err := c.System.DetectCtx(ctx, clip)
	return markAdversarial(det), err
}

func (c *countingSystem) DetectBatchCtx(ctx context.Context, clips []*mvpears.Clip) ([]*mvpears.Detection, error) {
	c.calls.Add(int64(len(clips)))
	dets, err := c.System.DetectBatchCtx(ctx, clips)
	for i := range dets {
		dets[i] = markAdversarial(dets[i])
	}
	return dets, err
}

func (c *countingSystem) DetectionFromStream(fin *stream.Final) *mvpears.Detection {
	c.calls.Add(1)
	return markAdversarial(c.System.DetectionFromStream(fin))
}

// counterSum sums every sample of one counter family ("name " or "name{").
func counterSum(metrics, name string) (sum float64) {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			v, _ := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			sum += v
		}
	}
	return sum
}

// TestRecordContract drives every entry point through every provenance it
// can reach and asserts what record promises, uniformly: one counted
// verdict per verdict served, one stage observation per backend call (none
// for cached or shared verdicts), one audit line per adversarial verdict
// carrying the route and the cached flag, and the explanation on request.
func TestRecordContract(t *testing.T) {
	sys := &countingSystem{System: e2eSystem(t)}
	auditPath := filepath.Join(t.TempDir(), "audit.jsonl")
	sink, err := obs.OpenAuditSink(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	s, ts := newTestServer(t, Config{Backend: sys, Workers: 2, Audit: sink, Stream: &StreamConfig{Window: 4000, Hop: 1000}})
	wsBase := "ws" + strings.TrimPrefix(ts.URL, "http")

	clipWAV := func(seed int64) (*mvpears.Clip, []byte) {
		clip, err := sys.GenerateSpeech("open the front door", seed)
		if err != nil {
			t.Fatal(err)
		}
		return clip, encodeWAV(t, clip)
	}
	auditEntries := func() (entries []obs.AuditEntry) {
		raw, err := os.ReadFile(auditPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
			var e struct {
				obs.AuditEntry
				Event string `json:"event"`
			}
			if len(line) == 0 || json.Unmarshal(line, &e) != nil || e.Event != "" {
				continue // drift alarms share the stream
			}
			entries = append(entries, e.AuditEntry)
		}
		return entries
	}

	postDetect := func(wav []byte) DetectionJSON {
		resp, err := http.Post(ts.URL+"/v1/detect?explain=1", "audio/wav", bytes.NewReader(wav))
		if err != nil {
			t.Error(err)
			return DetectionJSON{}
		}
		defer resp.Body.Close()
		var det DetectionJSON
		if err := json.NewDecoder(resp.Body).Decode(&det); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("detect: status %d, %v", resp.StatusCode, err)
		}
		return det
	}
	ndjsonFinal := func(wav []byte) DetectionJSON {
		resp, err := http.Post(ts.URL+"/v1/detect/stream?explain=1", "audio/wav", bytes.NewReader(wav))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ev StreamEventJSON
		for dec := json.NewDecoder(resp.Body); dec.More(); {
			ev = StreamEventJSON{}
			if err := dec.Decode(&ev); err != nil {
				t.Fatal(err)
			}
		}
		if ev.Event != StreamEventFinal || ev.Detection == nil {
			t.Fatalf("NDJSON stream ended on %q: %s", ev.Event, ev.Error)
		}
		return *ev.Detection
	}
	wsFinal := func(clip *mvpears.Clip) DetectionJSON {
		c, err := stream.DialWS(wsBase + "/v1/detect/ws?explain=1")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pcm := make([]byte, 2*len(clip.Samples))
		for i, v := range clip.Samples {
			q := int16(v * 32767)
			pcm[2*i], pcm[2*i+1] = byte(q), byte(uint16(q)>>8)
		}
		if err := c.WriteMessage(stream.OpBinary, pcm); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteMessage(stream.OpText, []byte("end")); err != nil {
			t.Fatal(err)
		}
		var ev StreamEventJSON
		for {
			_, payload, err := c.ReadMessage()
			if err != nil {
				break // server closes after the final event
			}
			ev = StreamEventJSON{}
			if err := json.Unmarshal(payload, &ev); err != nil {
				t.Fatal(err)
			}
		}
		if ev.Event != StreamEventFinal || ev.Detection == nil {
			t.Fatalf("WebSocket stream ended on %q: %s", ev.Event, ev.Error)
		}
		return *ev.Detection
	}

	_, detectWAV := clipWAV(11)
	_, sharedWAV := clipWAV(12)
	_, batchWAV := clipWAV(13)
	_, ndjsonWAV := clipWAV(14)
	wsClip, _ := clipWAV(15)

	for _, step := range []struct {
		name, route string
		fresh       int // verdicts that must come from a backend call
		serve       func() []DetectionJSON
	}{
		{"detect/fresh", "detect", 1, func() []DetectionJSON { return []DetectionJSON{postDetect(detectWAV)} }},
		{"detect/cached", "detect", 0, func() []DetectionJSON { return []DetectionJSON{postDetect(detectWAV)} }},
		{"detect/shared", "detect", 1, func() []DetectionJSON {
			// Two identical uploads: the leader is held at the gate until
			// the other has joined its flight.
			gate := make(chan struct{})
			sys.gate.Store(&gate)
			defer sys.gate.Store(nil)
			collapsed := s.flight.Collapsed()
			dets := make([]DetectionJSON, 2)
			var wg sync.WaitGroup
			for i := range dets {
				wg.Add(1)
				go func() { defer wg.Done(); dets[i] = postDetect(sharedWAV) }()
			}
			waitFor(t, func() bool { return s.flight.Collapsed() > collapsed })
			close(gate)
			wg.Wait()
			return dets
		}},
		{"batch/fresh", "detect_batch", 1, func() []DetectionJSON {
			return []DetectionJSON{postBatch(t, ts.URL+"/v1/detect/batch?explain=1", batchWAV).Results[0].DetectionJSON}
		}},
		{"batch/cached", "detect_batch", 0, func() []DetectionJSON {
			return []DetectionJSON{postBatch(t, ts.URL+"/v1/detect/batch?explain=1", batchWAV).Results[0].DetectionJSON}
		}},
		{"ndjson/fresh", "detect_stream", 1, func() []DetectionJSON { return []DetectionJSON{ndjsonFinal(ndjsonWAV)} }},
		{"ndjson/cached", "detect_stream", 0, func() []DetectionJSON { return []DetectionJSON{ndjsonFinal(ndjsonWAV)} }},
		{"ws/fresh", "detect_ws", 1, func() []DetectionJSON { return []DetectionJSON{wsFinal(wsClip)} }},
		{"ws/cached", "detect_ws", 0, func() []DetectionJSON { return []DetectionJSON{wsFinal(wsClip)} }},
	} {
		before, callsBefore, auditBefore := scrape(t, ts.URL), sys.calls.Load(), len(auditEntries())
		dets := step.serve()
		after := scrape(t, ts.URL)
		if t.Failed() {
			t.Fatalf("%s: request failed", step.name)
		}

		const recognition = `mvpears_detect_stage_seconds_count{stage="recognition"}`
		if got := counterSum(after, "mvpears_detections_total") - counterSum(before, "mvpears_detections_total"); int(got) != len(dets) {
			t.Errorf("%s: mvpears_detections_total moved by %v for %d verdicts served", step.name, got, len(dets))
		}
		if got := sys.calls.Load() - callsBefore; int(got) != step.fresh {
			t.Errorf("%s: %d backend calls, want %d", step.name, got, step.fresh)
		}
		if got := counterSum(after, recognition) - counterSum(before, recognition); int(got) != step.fresh {
			t.Errorf("%s: recognition stage observed %v times, want %d (once per backend call)", step.name, got, step.fresh)
		}
		fresh := 0
		for _, det := range dets {
			if !det.Cached {
				fresh++
			}
			if det.Verdict != VerdictAdversarial {
				t.Errorf("%s: verdict %q, want the flagged one", step.name, det.Verdict)
			}
			if det.Explanation == nil {
				t.Errorf("%s: ?explain=1 answered without an explanation (cached=%v)", step.name, det.Cached)
			}
		}
		if fresh != step.fresh {
			t.Errorf("%s: %d of %d responses say cached=false, want %d", step.name, fresh, len(dets), step.fresh)
		}
		entries := auditEntries()[auditBefore:]
		if len(entries) != len(dets) {
			t.Fatalf("%s: %d audit lines for %d adversarial verdicts", step.name, len(entries), len(dets))
		}
		auditedFresh := 0
		for _, e := range entries {
			if !e.Cached {
				auditedFresh++
			}
			if e.Route != step.route {
				t.Errorf("%s: audit route %q, want %q", step.name, e.Route, step.route)
			}
		}
		if auditedFresh != step.fresh {
			t.Errorf("%s: %d audit lines say cached=false, want %d", step.name, auditedFresh, step.fresh)
		}
	}
}
