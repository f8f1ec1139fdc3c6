package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"mime/multipart"
	"net/http"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/cluster"
	"mvpears/internal/obs"
	"mvpears/internal/vcache"
)

// seededDetections draws n detections of each kind the cache holds — a
// full-ensemble verdict, a cascade that short-circuited, a cascade that
// ran the whole ensemble, an adversarial verdict — over the stub roster
// (target DS0, auxiliaries DS1 and GCS). Texts mix plain words, JSON
// escapes, multi-byte runes and, now and then, more than 127 bytes (a
// two-byte length in the record).
func seededDetections(seed int64, n int) map[string]*mvpears.Detection {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"open", "the", "door", `"quoted"`, "<tag>", "a&b", "ünlock", "tab\there", "garage", "now"}
	text := func() string {
		k := rng.Intn(6)
		if rng.Intn(8) == 0 {
			k = 40
		}
		parts := make([]string, k)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	detection := func() *mvpears.Detection {
		return &mvpears.Detection{
			Scores:         []float64{rng.Float64(), rng.Float64() * 1e-3},
			Transcriptions: map[string]string{"DS0": text(), "DS1": text(), "GCS": text()},
			Timing: mvpears.DetectionTiming{
				Recognition: time.Duration(rng.Int63n(int64(time.Second))),
				Similarity:  time.Duration(rng.Int63n(int64(time.Millisecond))),
				Classify:    time.Duration(rng.Int63n(int64(time.Millisecond))),
			},
		}
	}
	out := make(map[string]*mvpears.Detection)
	for i := range n {
		full := detection()
		out[fmt.Sprintf("full/%d", i)] = full

		short := detection()
		short.Transcriptions["DS1"] = ""
		short.Cascade = &mvpears.CascadeDecision{
			ShortCircuit: true, EnginesRun: []string{"GCS"}, EnginesSkipped: []string{"DS1"},
			Margin: 0.7343, FirstScore: short.Scores[1], Imputed: []bool{true, false},
		}
		out[fmt.Sprintf("short_circuit/%d", i)] = short

		through := detection()
		through.Cascade = &mvpears.CascadeDecision{
			SampledFull: rng.Intn(2) == 0, EnginesRun: []string{"GCS", "DS1"},
			Margin: 0.7343, FirstScore: through.Scores[1], Imputed: []bool{false, false},
		}
		out[fmt.Sprintf("run_through/%d", i)] = through

		adv := detection()
		adv.Adversarial = true
		out[fmt.Sprintf("adversarial/%d", i)] = adv
	}
	return out
}

// TestVerdictEntryRebuildsDetection: the Detection rebuilt from a compact
// record is reflect.DeepEqual to the one stored — nil and empty slices and
// maps told apart, an explanation kept — and the record holds none of the
// stored Detection's mutable state.
func TestVerdictEntryRebuildsDetection(t *testing.T) {
	cases := seededDetections(38, 8)
	cases["nil_everything"] = &mvpears.Detection{}
	cases["empty_everything"] = &mvpears.Detection{Scores: []float64{}, Transcriptions: map[string]string{}}
	cases["empty_cascade"] = &mvpears.Detection{Cascade: &mvpears.CascadeDecision{EnginesRun: []string{}, EnginesSkipped: []string{}, Imputed: []bool{}}}
	// A run-through but for an empty, not nil, EnginesSkipped: the record
	// must keep the two apart.
	emptySkipped := cloneDetection(cases["run_through/0"])
	emptySkipped.Cascade.EnginesSkipped = []string{}
	cases["run_through_empty_skipped"] = emptySkipped
	cases["explained"] = &mvpears.Detection{
		Scores:         []float64{0.5},
		Transcriptions: map[string]string{"DS0": "a", "DS1": "b"},
		Explanation:    &mvpears.Explanation{Method: "PE_JaroWinkler", MinSimilarity: 0.5, MinEngine: "DS1"},
	}
	for name, det := range cases {
		want := cloneDetection(det)
		e := newVerdictEntry(det)
		// Scribble over the stored Detection: the record must not share it.
		for i := range det.Scores {
			det.Scores[i] = -1
		}
		for k := range det.Transcriptions {
			det.Transcriptions[k] = "scribbled"
		}
		if c := det.Cascade; c != nil {
			for i := range c.EnginesRun {
				c.EnginesRun[i] = "scribbled"
			}
			for i := range c.Imputed {
				c.Imputed[i] = !c.Imputed[i]
			}
		}
		for range 2 {
			if got := e.detection(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rebuilt %+v\nwant %+v", name, got, want)
			}
		}
	}
}

// cloneDetection deep-copies det, nil-ness preserved.
func cloneDetection(det *mvpears.Detection) *mvpears.Detection {
	out := *det
	if det.Scores != nil {
		out.Scores = append([]float64{}, det.Scores...)
	}
	if det.Transcriptions != nil {
		out.Transcriptions = make(map[string]string, len(det.Transcriptions))
		for k, v := range det.Transcriptions {
			out.Transcriptions[k] = v
		}
	}
	if c := det.Cascade; c != nil {
		cc := *c
		if c.EnginesRun != nil {
			cc.EnginesRun = append([]string{}, c.EnginesRun...)
		}
		if c.EnginesSkipped != nil {
			cc.EnginesSkipped = append([]string{}, c.EnginesSkipped...)
		}
		if c.Imputed != nil {
			cc.Imputed = append([]bool{}, c.Imputed...)
		}
		out.Cascade = &cc
	}
	return &out
}

// encodeJSON is v as writeJSON writes it.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postBatchRaw POSTs body as a one-file batch named "clip.wav" and returns
// the raw response body.
func postBatchRaw(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("file", "clip.wav")
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(body)
	mw.Close()
	resp, err := http.Post(url+"/v1/detect/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return readAll(t, resp)
}

// TestCompactRecordServesDetectionBytes: every answer served from a cached
// verdict — plain hit, explain hit, batch part, cluster peer answer — is
// byte-identical to the one encoded from the stored *mvpears.Detection
// itself, the way answers were built when the cache held Detections.
func TestCompactRecordServesDetectionBytes(t *testing.T) {
	body := wavBody(t, 8000, 256)
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, det := range seededDetections(7, 3) {
		t.Run(name, func(t *testing.T) {
			var audit syncBuffer
			s, ts := newTestServer(t, Config{
				Backend: explainingStub{&fpStub{fixedStub(*det), "model-a"}},
				Logger:  log.New(io.Discard, "", 0),
				Audit:   obs.NewAuditSink(&audit),
			})
			st := s.state()
			readAll(t, postWAV(t, ts.URL, body)) // the miss that stores it

			plain := NewDetectionJSON(det, st.auxNames)
			plain.Cached = true
			wantPlain := encodeJSON(t, plain)
			for i := range 2 { // the hit that encodes the body, and one that reuses it
				if got := readAll(t, postWAV(t, ts.URL, body)); !bytes.Equal(got, wantPlain) {
					t.Fatalf("plain hit %d:\n got %s\nwant %s", i, got, wantPlain)
				}
			}

			resp, err := http.Post(ts.URL+"/v1/detect?explain=1", "audio/wav", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			wantExplain := encodeJSON(t, s.record(st, nil, "detect", "", det, howCached, true))
			if got := readAll(t, resp); !bytes.Equal(got, wantExplain) {
				t.Fatalf("explain hit:\n got %s\nwant %s", got, wantExplain)
			}

			wantBatch := encodeJSON(t, BatchResponseJSON{Results: []FileDetectionJSON{{
				File:          "clip.wav",
				DetectionJSON: s.record(st, nil, "detect_batch", "clip.wav", det, howCached, false),
			}}})
			if got := postBatchRaw(t, ts.URL, body); !bytes.Equal(got, wantBatch) {
				t.Fatalf("batch part:\n got %s\nwant %s", got, wantBatch)
			}

			key := vcache.KeyPCM16(st.modelFP, pcm.SampleRate, pcm.Data)
			rec, cached, _, err := clusterHandler{s}.Detect(context.Background(), obs.TraceContext{}, key, pcm.SampleRate, pcm.Data)
			if err != nil || !cached {
				t.Fatalf("peer answer: cached %v, err %v", cached, err)
			}
			if got, want := cluster.AppendVerdict(nil, rec, true, nil), cluster.AppendVerdict(nil, string(cluster.AppendDetection(nil, det)), true, nil); !bytes.Equal(got, want) {
				t.Fatalf("peer answer on the wire:\n got %x\nwant %x", got, want)
			}

			// Audit lines: the fresh miss's (from the backend's Detection),
			// the four hits' (from the record) and the two references
			// above (from det) agree on everything but time, request,
			// route, file and the cached flag.
			lines := strings.Split(strings.TrimSpace(audit.String()), "\n")
			if !det.Adversarial {
				if audit.String() != "" {
					t.Fatalf("benign verdicts audited: %s", audit.String())
				}
				return
			}
			if len(lines) != 7 {
				t.Fatalf("%d audit lines, want 7:\n%s", len(lines), audit.String())
			}
			var first []byte
			for i, line := range lines {
				var e obs.AuditEntry
				if err := json.Unmarshal([]byte(line), &e); err != nil {
					t.Fatal(err)
				}
				e.Time, e.RequestID, e.Route, e.File, e.Cached = time.Time{}, "", "", "", false
				got := encodeJSON(t, e)
				if i == 0 {
					first = got
				} else if !bytes.Equal(got, first) {
					t.Fatalf("audit line %d:\n got %s\nwant %s", i, got, first)
				}
			}
		})
	}
}

// TestCacheChargeMatchesHeap: the bytes the cache charges an entry are
// within 15 % of the live heap the entry adds, for 4 096 full-ensemble and
// 4 096 cascaded verdicts, with and without a plain hit on each.
func TestCacheChargeMatchesHeap(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cascaded, hits bool
	}{
		{"full", false, false},
		{"cascaded", true, false},
		{"full_hit", false, true},
		{"cascaded_hit", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heap, _, charged := measureCacheEntries(t, tc.cascaded, tc.hits, 4096)
			t.Logf("heap %.0f B/entry, charged %.0f B/entry", heap, charged)
			if math.Abs(charged-heap) > 0.15*heap {
				t.Fatalf("charged %.0f B/entry against %.0f B/entry of live heap (off by more than 15%%)", charged, heap)
			}
		})
	}
}

// TestCacheChargeIgnoresPooledBuffers: upload buffers an earlier request
// left in scratchPool are not counted as entry heap, even when no
// collection runs while the cache fills (the pool then survives into the
// first reading).
func TestCacheChargeIgnoresPooledBuffers(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 7 {
		b := make([]byte, 0, 64<<10)
		putScratch(&b)
	}
	heap, _, charged := measureCacheEntries(t, false, false, 4096)
	if math.Abs(charged-heap) > 0.15*heap {
		t.Fatalf("charged %.0f B/entry against %.0f B/entry of live heap (off by more than 15%%)", charged, heap)
	}
}
