package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"mvpears"
)

// explainingStub is a fingerprinted stub whose backend can explain any
// verdict after the fact, as *mvpears.System does for cache hits.
type explainingStub struct{ *fpStub }

func (b explainingStub) Explain(det *mvpears.Detection) *mvpears.Explanation {
	return &mvpears.Explanation{
		Method:        "PE_JaroWinkler",
		Target:        mvpears.EngineEvidence{Engine: "DS0", Transcription: det.Transcriptions["DS0"], Similarity: 1},
		Auxiliaries:   []mvpears.EngineEvidence{{Engine: "DS1", Similarity: det.Scores[0]}, {Engine: "GCS", Similarity: det.Scores[1]}},
		MinSimilarity: det.Scores[1],
		MinEngine:     "GCS",
	}
}

// fixedStub answers every detection with a copy of det.
func fixedStub(det mvpears.Detection) *stubBackend {
	b := instantStub()
	b.detect = func(context.Context, *mvpears.Clip) (*mvpears.Detection, error) {
		d := det
		return &d, nil
	}
	return b
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return b
}

// encodedRecord is what a plain hit must answer: record's DetectionJSON
// through a json.Encoder.
func encodedRecord(t *testing.T, s *Server, det *mvpears.Detection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s.record(s.state(), nil, "detect", "", det, howCached, false)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPlainHitServesEncodedRecord: a plain hit's body is byte-equal to the
// encoded record of the same detection, on every hit, for a cascade
// verdict and an adversarial one whose text needs JSON escaping.
func TestPlainHitServesEncodedRecord(t *testing.T) {
	cascade := *benignDetection()
	cascade.Cascade = &mvpears.CascadeDecision{
		ShortCircuit: true, EnginesRun: []string{"GCS"}, EnginesSkipped: []string{"DS1"},
		Margin: 0.7343, FirstScore: 0.95, Imputed: []bool{true, false},
	}
	adversarial := mvpears.Detection{
		Adversarial:    true,
		Scores:         []float64{0.41, 1e-7},
		Transcriptions: map[string]string{"DS0": `unlock "the" <door> & go`, "DS1": "ünlock\tthe door", "GCS": ""},
		Timing:         mvpears.DetectionTiming{Recognition: 3 * time.Millisecond, Similarity: 17 * time.Microsecond, Classify: 1},
	}
	for name, det := range map[string]mvpears.Detection{"cascade": cascade, "adversarial": adversarial} {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Backend: &fpStub{fixedStub(det), "model-a"}})
			body := wavBody(t, 8000, 256)
			fresh := readAll(t, postWAV(t, ts.URL, body))
			want := encodedRecord(t, s, &det)
			if bytes.Equal(fresh, want) {
				t.Fatal("the fresh response already claims cached")
			}
			for i := 0; i < 3; i++ {
				resp := postWAV(t, ts.URL, body)
				got := readAll(t, resp)
				if !bytes.Equal(got, want) {
					t.Fatalf("hit %d body:\n got %s\nwant %s", i, got, want)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Fatalf("Content-Type %q", ct)
				}
				if resp.ContentLength != int64(len(want)) {
					t.Fatalf("Content-Length %d, want %d", resp.ContentLength, len(want))
				}
			}
			// Every hit is still counted like any served verdict.
			verdict := verdictOf(det.Adversarial)
			if got := s.m.counter(mDetections, verdict).Value(); got != 1+3+1 { // fresh, hits, encodedRecord
				t.Fatalf("%s verdicts counted %d, want 5", verdict, got)
			}
		})
	}
}

// TestExplainHitStillExplains: ?explain=1 on a key that has already served
// a plain hit carries an explanation.
func TestExplainHitStillExplains(t *testing.T) {
	_, ts := newTestServer(t, Config{Backend: explainingStub{&fpStub{instantStub(), "model-a"}}})
	body := wavBody(t, 8000, 256)
	readAll(t, postWAV(t, ts.URL, body))
	plain := decodeBody[DetectionJSON](t, postWAV(t, ts.URL, body))
	if !plain.Cached || plain.Explanation != nil {
		t.Fatalf("plain hit: cached %v, explanation %v", plain.Cached, plain.Explanation)
	}
	resp, err := http.Post(ts.URL+"/v1/detect?explain=1", "audio/wav", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got := decodeBody[DetectionJSON](t, resp)
	if !got.Cached || got.Explanation == nil || got.Explanation.MinEngine != "GCS" {
		t.Fatalf("explain hit: cached %v, explanation %+v", got.Cached, got.Explanation)
	}
}

// TestReloadNeverServesStaleHitBody: a reload to a model with other
// auxiliary names — under the same fingerprint, so its keys still find the
// old entries — re-encodes the hit body instead of serving the old one.
func TestReloadNeverServesStaleHitBody(t *testing.T) {
	next := instantStub()
	next.aux = []string{"AT", "GCS"}
	s, ts := newTestServer(t, Config{
		Backend: &fpStub{instantStub(), "model-a"},
		Reload:  func() (Backend, error) { return &fpStub{next, "model-a"}, nil },
		Logger:  log.New(io.Discard, "", 0),
	})
	body := wavBody(t, 8000, 256)
	readAll(t, postWAV(t, ts.URL, body))
	before := readAll(t, postWAV(t, ts.URL, body))
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	after := readAll(t, postWAV(t, ts.URL, body))
	if bytes.Equal(after, before) {
		t.Fatal("the reloaded model served the old model's body")
	}
	if want := encodedRecord(t, s, benignDetection()); !bytes.Equal(after, want) {
		t.Fatalf("hit body after reload:\n got %s\nwant %s", after, want)
	}
	var got DetectionJSON
	if err := json.Unmarshal(after, &got); err != nil || !got.Cached || !slices.Equal(got.Auxiliaries, next.aux) {
		t.Fatalf("after reload: %+v (%v)", got, err)
	}
}

// TestConcurrentFirstHitsAgree: many goroutines take a key's first plain
// hits at once; every one serves the same bytes.
func TestConcurrentFirstHitsAgree(t *testing.T) {
	s, err := New(Config{Backend: &fpStub{instantStub(), "model-a"}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	body := wavBody(t, 8000, 256)
	if code := serveDetect(h, body); code != http.StatusOK {
		t.Fatalf("priming status %d", code)
	}
	want := encodedRecord(t, s, benignDetection())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body)))
				if !bytes.Equal(rec.Body.Bytes(), want) {
					t.Errorf("hit body %s, want %s", rec.Body.Bytes(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
