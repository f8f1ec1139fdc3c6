package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

// tracingStub is an instant benign stub that records a per-engine
// transcribe span into the request's trace, standing in for the real
// detector's stage spans so cross-replica stitching can be asserted by
// span name without training a system.
func tracingStub() *stubBackend {
	b := instantStub()
	b.detect = func(ctx context.Context, _ *mvpears.Clip) (*mvpears.Detection, error) {
		start := time.Now()
		det := benignDetection()
		obs.TraceFrom(ctx).Record(obs.StageTranscribe, "DS1", start)
		return det, nil
	}
	return b
}

// detectLogLines decodes the access-log buffer and returns the records
// for the detect route, each with the set of span names it carried.
type detectLogLine struct {
	rec   map[string]any
	spans []string
}

func detectLogLines(t *testing.T, buf *syncBuffer) []detectLogLine {
	t.Helper()
	var out []detectLogLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad access-log line %q: %v", line, err)
		}
		if rec["route"] != "detect" {
			continue
		}
		l := detectLogLine{rec: rec}
		if spans, ok := rec["spans"].(map[string]any); ok {
			for _, v := range spans {
				if sp, ok := v.(map[string]any); ok {
					if name, ok := sp["span"].(string); ok {
						l.spans = append(l.spans, name)
					}
				}
			}
		}
		out = append(out, l)
	}
	return out
}

func hasSpan(l detectLogLine, name string) bool {
	for _, sp := range l.spans {
		if sp == name {
			return true
		}
	}
	return false
}

func hasSpanPrefix(l detectLogLine, prefix string) bool {
	for _, sp := range l.spans {
		if strings.HasPrefix(sp, prefix) {
			return true
		}
	}
	return false
}

// traceLogPair boots a tracing cluster pair whose every request logs with
// full span detail (slow threshold 1ns).
func traceLogPair(t *testing.T, backendA, backendB Backend) (sA, sB *Server, tsA, tsB *httptest.Server, buf *syncBuffer) {
	t.Helper()
	buf = &syncBuffer{}
	a, b, ta, tb := clusterPair(t, backendA, backendB, func(cfg *Config) {
		cfg.AccessLog = buf
		cfg.SlowRequestThreshold = time.Nanosecond
	})
	return a, b, ta, tb, buf
}

// TestClusterForwardStitchedTrace is the trace-propagation acceptance
// check: a detection forwarded to its remote owner produces ONE stitched
// trace on the requester whose span list carries the local round trip
// (cluster_forward) and the owner's decode and engine spans, identified by
// the @peer suffix — not an opaque remote wait. The requester never
// float-decodes an upload its owner detects, so it has no local decode.
func TestClusterForwardStitchedTrace(t *testing.T) {
	sA, sB, _, tsB, buf := traceLogPair(t,
		&fpStub{tracingStub(), "model-a"}, &fpStub{tracingStub(), "model-a"})
	body := bodyOwnedBy(t, sB, "model-a", false) // owned by A

	det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if !det.Remote || det.Cached {
		t.Fatalf("forwarded detect = cached=%v remote=%v, want remote fresh", det.Cached, det.Remote)
	}

	var lines []detectLogLine
	waitFor(t, func() bool {
		lines = detectLogLines(t, buf)
		return len(lines) >= 1
	})
	if len(lines) != 1 {
		t.Fatalf("forwarded detection produced %d detect log lines, want one stitched trace", len(lines))
	}
	l := lines[0]
	if l.rec["remote"] != true {
		t.Fatalf("log record not marked remote: %v", l.rec)
	}
	owner := "@" + sA.node.Self()
	for _, want := range []string{"cluster_forward", "decode" + owner, "transcribe:DS1" + owner} {
		if !hasSpan(l, want) {
			t.Errorf("stitched trace missing span %q (have %v)", want, l.spans)
		}
	}
	if hasSpan(l, "decode") {
		t.Errorf("requester decoded an upload its owner detected (spans %v)", l.spans)
	}
	// The requester observed the round trip into the per-peer RTT family.
	if !strings.Contains(metricsBody(t, tsB.URL),
		`mvpears_cluster_rtt_seconds_count{peer="`+sA.node.Self()+`"}`) {
		t.Error("requester metrics missing the per-peer RTT histogram")
	}
}

// TestClusterRemoteHitTrace: a remote cache hit stitches the
// cluster_forward span (the round trip happened) but no remote engine
// spans (the owner ran no pipeline).
func TestClusterRemoteHitTrace(t *testing.T) {
	sA, sB, tsA, tsB, buf := traceLogPair(t,
		&fpStub{tracingStub(), "model-a"}, &fpStub{tracingStub(), "model-a"})
	_ = sA
	body := bodyOwnedBy(t, sB, "model-a", false)

	// Prime the owner, then hit it remotely from B.
	postWAV(t, tsA.URL, body)
	det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if !det.Remote || !det.Cached {
		t.Fatalf("second post = cached=%v remote=%v, want remote hit", det.Cached, det.Remote)
	}

	var hit *detectLogLine
	waitFor(t, func() bool {
		lines := detectLogLines(t, buf)
		for i, l := range lines {
			if l.rec["remote"] == true && l.rec["cached"] == true {
				hit = &lines[i]
				return true
			}
		}
		return false
	})
	if !hasSpan(*hit, "cluster_forward") {
		t.Errorf("remote hit trace missing cluster_forward (have %v)", hit.spans)
	}
	if hasSpanPrefix(*hit, "transcribe:DS1@") {
		t.Errorf("remote HIT stitched engine spans that never ran: %v", hit.spans)
	}
}

// TestClusterExplainBitIdentical runs a real trained system on both
// replicas and requires ?explain=1 evidence to be bit-identical no matter
// how the verdict was served: locally fresh, forwarded to the remote
// owner, or answered from cache.
func TestClusterExplainBitIdentical(t *testing.T) {
	sys := e2eSystem(t)
	sB1, sB2, tsB1, tsB2 := clusterPair(t, sys, sys, nil)
	_, _ = sB1, sB2

	clip, err := sys.GenerateSpeech("close the window please", 77)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectCtx(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	wantExp := sys.Explain(want)
	wav := encodeWAV(t, clip)

	checkExp := func(name string, det DetectionJSON) {
		t.Helper()
		exp := det.Explanation
		if exp == nil {
			t.Fatalf("%s: no explanation", name)
		}
		if exp.MinSimilarity != wantExp.MinSimilarity || exp.MinEngine != wantExp.MinEngine {
			t.Fatalf("%s: min %q=%v, want %q=%v", name, exp.MinEngine, exp.MinSimilarity, wantExp.MinEngine, wantExp.MinSimilarity)
		}
		aux := sys.AuxiliaryNames()
		for i, nameAux := range aux {
			ev := exp.Engines[i+1]
			if ev.Similarity == nil || *ev.Similarity != want.Scores[i] {
				t.Fatalf("%s: %s similarity %v, want exactly %v", name, nameAux, ev.Similarity, want.Scores[i])
			}
		}
	}

	post := func(ts *httptest.Server) DetectionJSON {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/detect?explain=1", "audio/wav", bytes.NewReader(wav))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		return decodeBody[DetectionJSON](t, resp)
	}

	// First post to replica 1: locally fresh or forwarded, depending on
	// ring placement — either way the evidence must be exact.
	first := post(tsB1)
	checkExp("first", first)
	// Replica 2 next: a remote hit or local hit (replica 1 populated the
	// owner and itself).
	second := post(tsB2)
	checkExp("second", second)
	// And a straight repeat: local cache hit with derived-after-the-fact
	// explanation.
	third := post(tsB1)
	if !third.Cached {
		t.Fatal("repeat post not served from cache")
	}
	checkExp("cached", third)
}
