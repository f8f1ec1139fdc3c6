package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/cluster"
	"mvpears/internal/vcache"
)

// clusterPair boots two clustered replicas over real loopback TCP peer
// listeners. mutate (optional) adjusts each replica's Config before boot.
func clusterPair(t testing.TB, backendA, backendB Backend, mutate func(*Config)) (sA, sB *Server, tsA, tsB *httptest.Server) {
	t.Helper()
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA, addrB := lnA.Addr().String(), lnB.Addr().String()
	build := func(backend Backend, ln net.Listener, peer string) (*Server, *httptest.Server) {
		cfg := Config{
			Backend: backend,
			Workers: 4,
			Cluster: &ClusterConfig{Listener: ln, Peers: []string{peer}},
			Logger:  log.New(io.Discard, "", 0),
		}
		if mutate != nil {
			mutate(&cfg)
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	sA, tsA = build(backendA, lnA, addrB)
	sB, tsB = build(backendB, lnB, addrA)
	return sA, sB, tsA, tsB
}

// bodyOwnedBy searches deterministic WAV bodies for one whose verdict key
// is owned by the wanted replica (ring placement depends on the ephemeral
// peer ports, so the content must be picked per run).
func bodyOwnedBy(t testing.TB, s *Server, fp string, wantSelf bool) []byte {
	t.Helper()
	for n := 256; n < 256+64; n++ {
		body := wavBody(t, 8000, n)
		pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := vcache.KeyPCM16(fp, pcm.SampleRate, pcm.Data)
		if _, self := s.node.Owner(key); self == wantSelf {
			return body
		}
	}
	t.Fatal("no body with the wanted ring placement in 64 candidates")
	return nil
}

// TestClusterRemoteHit is the distributed-cache acceptance check: a
// verdict cached on the owning replica is served to another replica as a
// remote hit — no second detection anywhere.
func TestClusterRemoteHit(t *testing.T) {
	stubA, callsA := countingStub()
	stubB, callsB := countingStub()
	sA, sB, tsA, tsB := clusterPair(t, &fpStub{stubA, "model-a"}, &fpStub{stubB, "model-a"}, nil)
	_ = sA
	// A body whose key B does NOT own, so posting to its owner first and
	// to B second exercises the forward path deterministically.
	body := bodyOwnedBy(t, sB, "model-a", false)

	first := decodeBody[DetectionJSON](t, postWAV(t, tsA.URL, body))
	if first.Cached || first.Remote {
		t.Fatalf("first post = %+v, want fresh local", first)
	}
	second := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if !second.Cached || !second.Remote {
		t.Fatalf("second post on the non-owner = cached=%v remote=%v, want a remote hit", second.Cached, second.Remote)
	}
	if second.Verdict != first.Verdict || len(second.Scores) != len(first.Scores) {
		t.Fatalf("remote verdict diverged: %+v vs %+v", second, first)
	}
	if a, b := callsA.Load(), callsB.Load(); a+b != 1 {
		t.Fatalf("fleet ran %d detections (A=%d B=%d), want 1", a+b, a, b)
	}
	// The requester populated its local cache: a repeat is a local hit.
	third := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if !third.Cached || third.Remote {
		t.Fatalf("third post = cached=%v remote=%v, want a local hit", third.Cached, third.Remote)
	}
	metrics := metricsBody(t, tsB.URL)
	if !strings.Contains(metrics, `mvpears_cluster_forwards_total{outcome="hit"} 1`) {
		t.Error("requester metrics missing the forward-hit count")
	}
	if !strings.Contains(metricsBody(t, tsA.URL), `mvpears_cluster_served_total{op="detect"} 1`) {
		t.Error("owner metrics missing the served-detect count")
	}
}

// TestClusterForwardedDetection: a miss on the non-owner forwards the
// whole detection to the owner, which runs it once and caches it; the
// requester reports Remote without Cached.
func TestClusterForwardedDetection(t *testing.T) {
	stubA, callsA := countingStub()
	stubB, callsB := countingStub()
	sA, sB, _, tsB := clusterPair(t, &fpStub{stubA, "model-a"}, &fpStub{stubB, "model-a"}, nil)
	_ = sA
	body := bodyOwnedBy(t, sB, "model-a", false)

	det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if !det.Remote || det.Cached {
		t.Fatalf("forwarded miss = cached=%v remote=%v, want remote fresh", det.Cached, det.Remote)
	}
	if a, b := callsA.Load(), callsB.Load(); a != 1 || b != 0 {
		t.Fatalf("detections ran A=%d B=%d, want the owner to run exactly one", a, b)
	}
}

// TestClusterPeerDownDegradesToLocal: with the owner down, the non-owner
// must serve the request locally — degraded, never failed.
func TestClusterPeerDownDegradesToLocal(t *testing.T) {
	stubB, callsB := countingStub()
	stubA, _ := countingStub()
	sA, sB, _, tsB := clusterPair(t, &fpStub{stubA, "model-a"}, &fpStub{stubB, "model-a"}, nil)
	body := bodyOwnedBy(t, sB, "model-a", false)
	// Kill the owner's peer listener (its HTTP side staying up is
	// irrelevant to the peer protocol).
	_ = sA.node.Close()

	det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if det.Remote || det.Cached {
		t.Fatalf("down-peer detect = cached=%v remote=%v, want fresh local", det.Cached, det.Remote)
	}
	if got := callsB.Load(); got != 1 {
		t.Fatalf("requester ran %d local detections, want 1", got)
	}
	if !strings.Contains(metricsBody(t, tsB.URL), `mvpears_cluster_forwards_total{outcome="error"} 1`) {
		t.Error("metrics missing the degraded-forward count")
	}
}

// TestClusterFingerprintMismatchDeclines: an owner running a different
// model must decline the forward (it cannot verify the key), and the
// requester detects locally — the mid-reload consistency guard.
func TestClusterFingerprintMismatchDeclines(t *testing.T) {
	stubA, callsA := countingStub()
	stubB, callsB := countingStub()
	sA, sB, _, tsB := clusterPair(t, &fpStub{stubA, "model-OLD"}, &fpStub{stubB, "model-new"}, nil)
	_ = sA
	body := bodyOwnedBy(t, sB, "model-new", false)

	det := decodeBody[DetectionJSON](t, postWAV(t, tsB.URL, body))
	if det.Remote {
		t.Fatal("skewed owner answered a key it cannot verify")
	}
	if a, b := callsA.Load(), callsB.Load(); a != 0 || b != 1 {
		t.Fatalf("detections ran A=%d B=%d, want only the requester's local fallback", a, b)
	}
}

// TestClusterDuplicateStormOneDetection is the fleet-wide singleflight
// acceptance check: 16 identical uploads split across two replicas run
// exactly one backend detection in the whole fleet.
func TestClusterDuplicateStormOneDetection(t *testing.T) {
	const storm = 16
	release := make(chan struct{})
	var callsA, callsB atomic.Int64
	mk := func(calls *atomic.Int64) *stubBackend {
		b := instantStub()
		inner := b.detect
		b.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
			calls.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, clip)
		}
		return b
	}
	sA, sB, tsA, tsB := clusterPair(t, &fpStub{mk(&callsA), "model-a"}, &fpStub{mk(&callsB), "model-a"}, nil)
	// Content owned by A: A-side requests collapse on A's flight, B-side
	// requests collapse on B's flight whose leader forwards to A and joins
	// A's flight there.
	body := bodyOwnedBy(t, sA, "model-a", true)

	type result struct {
		code   int
		cached bool
		err    error
	}
	results := make(chan result, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		url := tsA.URL
		if i%2 == 1 {
			url = tsB.URL
		}
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			resp, err := http.Post(url+"/v1/detect", "audio/wav", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var det DetectionJSON
			err = json.NewDecoder(resp.Body).Decode(&det)
			results <- result{code: resp.StatusCode, cached: det.Cached, err: err}
		}(url)
	}
	// All followers everywhere must have joined a flight before the single
	// detection may finish: 7 on A's flight from A's own requests, 7 on
	// B's, plus B's forwarded leader joining A's flight = 15 collapsed.
	waitFor(t, func() bool { return sA.flight.Collapsed()+sB.flight.Collapsed() >= storm-1 })
	close(release)
	wg.Wait()
	close(results)

	var fresh int
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("status %d, want 200", r.code)
		}
		if !r.cached {
			fresh++
		}
	}
	if got := callsA.Load() + callsB.Load(); got != 1 {
		t.Fatalf("fleet-wide storm of %d ran %d detections (A=%d B=%d), want exactly 1", storm, got, callsA.Load(), callsB.Load())
	}
	if fresh != 1 {
		t.Fatalf("%d responses claimed a fresh verdict, want exactly 1", fresh)
	}
}

// TestClusterSlowLocalMissRunsOnce: a self-owned miss runs on its owner
// and nowhere else, however long it takes — the cluster tier never
// duplicates a detection onto a peer.
func TestClusterSlowLocalMissRunsOnce(t *testing.T) {
	slow, callsA := countingStub()
	inner := slow.detect
	slow.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		select {
		case <-time.After(100 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, clip)
	}
	peer, callsB := countingStub()
	sA, _, tsA, _ := clusterPair(t, &fpStub{slow, "model-a"}, &fpStub{peer, "model-a"}, nil)
	body := bodyOwnedBy(t, sA, "model-a", true)

	det := decodeBody[DetectionJSON](t, postWAV(t, tsA.URL, body))
	if det.Remote || det.Cached {
		t.Fatalf("slow self-owned miss = cached=%v remote=%v, want fresh local", det.Cached, det.Remote)
	}
	if a, b := callsA.Load(), callsB.Load(); a != 1 || b != 0 {
		t.Fatalf("detections ran A=%d B=%d, want exactly one, on the owner", a, b)
	}
}

// malformedPeer is a peer replica that answers every MsgDetect with a
// MsgVerdict frame carrying payload, one request per connection. asked
// counts the requests it answered.
func malformedPeer(t *testing.T, payload []byte) (addr string, asked *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	asked = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if typ, _, _, err := cluster.ReadFrame(bufio.NewReader(conn), nil); err == nil && typ == cluster.MsgDetect {
				asked.Add(1)
				conn.Write(cluster.AppendFrame(nil, cluster.MsgVerdict, payload))
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), asked
}

// TestClusterMalformedPeerRecordNeverCached: a requester keeps a peer's
// record as the bytes it came in, so a record that does not parse — cut
// short, or with a count past the bytes that follow — must be a peer
// error. The request is served by local detection with DetectCtx's
// verdict, the key's entry holds the local record, and a repeat is a local
// hit.
func TestClusterMalformedPeerRecordNeverCached(t *testing.T) {
	peerDet := benignDetection()
	peerDet.Adversarial, peerDet.Scores = true, []float64{0.1, 0.2}
	good := cluster.AppendVerdict(nil, string(cluster.AppendDetection(nil, peerDet)), true, nil)
	badCount := bytes.Clone(good)
	badCount[2] = 0x7F // the scores count: 126 float64s, past the payload's end
	for name, payload := range map[string][]byte{
		"truncated": good[:len(good)/2],
		"bad_count": badCount,
	} {
		t.Run(name, func(t *testing.T) {
			peer, asked := malformedPeer(t, payload)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			s, ts := newTestServer(t, Config{
				Backend: &fpStub{instantStub(), "model-a"},
				Cluster: &ClusterConfig{Listener: ln, Peers: []string{peer}},
				Logger:  log.New(io.Discard, "", 0),
			})
			body := bodyOwnedBy(t, s, "model-a", false)
			st := s.state()
			pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := st.backend.DetectCtx(context.Background(), pcm.DecodeInto(nil))
			if err != nil {
				t.Fatal(err)
			}

			served := NewDetectionJSON(want, st.auxNames)
			if got := readAll(t, postWAV(t, ts.URL, body)); !bytes.Equal(got, encodeJSON(t, served)) {
				t.Fatalf("served %s\nwant the local detection %s", got, encodeJSON(t, served))
			}
			if n := asked.Load(); n != 1 {
				t.Fatalf("the peer was asked %d times, want 1", n)
			}
			key := vcache.KeyPCM16(st.modelFP, pcm.SampleRate, pcm.Data)
			if e, ok := s.lookup(key, true); !ok || e.rec != string(cluster.AppendDetection(nil, want)) {
				t.Fatalf("the key's entry does not hold the local record (stored %v)", ok)
			}
			served.Cached = true
			if got := readAll(t, postWAV(t, ts.URL, body)); !bytes.Equal(got, encodeJSON(t, served)) {
				t.Fatalf("repeat served %s\nwant a local hit %s", got, encodeJSON(t, served))
			}
			if n := asked.Load(); n != 1 {
				t.Fatalf("the repeat went to the peer (%d requests)", n)
			}
			if !strings.Contains(metricsBody(t, ts.URL), `mvpears_cluster_forwards_total{outcome="error"} 1`) {
				t.Error("the malformed reply was not counted as a forward error")
			}
		})
	}
}
