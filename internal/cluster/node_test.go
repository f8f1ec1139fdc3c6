package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

// stubHandler is a scriptable cluster.Handler.
type stubHandler struct {
	mu      sync.Mutex
	cache   map[string]string
	detects atomic.Int64
	// block, when non-nil, is closed by the test to release in-flight
	// Detect calls (for the fan-in limit test).
	block chan struct{}
	err   error
}

func (h *stubHandler) Detect(ctx context.Context, tc obs.TraceContext, key string, sampleRate int, pcm []byte) (string, bool, []obs.Span, error) {
	h.detects.Add(1)
	if h.block != nil {
		select {
		case <-h.block:
		case <-ctx.Done():
			return "", false, nil, ctx.Err()
		}
	}
	if h.err != nil {
		return "", false, nil, h.err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if rec, ok := h.cache[key]; ok {
		return rec, true, h.spansFor(tc), nil
	}
	rec := string(AppendDetection(nil, &mvpears.Detection{
		Adversarial:    true,
		Scores:         []float64{0.1},
		Transcriptions: map[string]string{"target": "t", "aux": "a"},
	}))
	h.cache[key] = rec
	return rec, false, h.spansFor(tc), nil
}

// spansFor returns a recognizable remote span set when the requester
// sampled the trace, mirroring the real owner-side contract.
func (h *stubHandler) spansFor(tc obs.TraceContext) []obs.Span {
	if !tc.Sampled {
		return nil
	}
	return []obs.Span{{Stage: "transcribe", Engine: "DS1", Start: time.Millisecond, Dur: 2 * time.Millisecond}}
}

// startNode builds a Node serving on a loopback listener and returns it
// with its bound address. peers are the OTHER replicas' addresses; mutate,
// when set, adjusts the built Node before it serves.
func startNode(t *testing.T, h Handler, mutate func(*Node), peers ...string) (*Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	n, err := New(Config{
		Self:           ln.Addr().String(),
		Peers:          peers,
		Handler:        h,
		RequestTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	n.downFor = 200 * time.Millisecond
	if mutate != nil {
		mutate(n)
	}
	go func() { _ = n.Serve(context.Background(), ln) }()
	t.Cleanup(func() { _ = n.Close() })
	return n, ln.Addr().String()
}

// twoNodes wires a pair of replicas that know about each other.
func twoNodes(t *testing.T, ha, hb Handler) (a, b *Node, addrA, addrB string) {
	t.Helper()
	// Reserve B's address first so A can list it as a peer.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addrB = lnB.Addr().String()
	a, addrA = startNode(t, ha, nil, addrB)
	b, err = New(Config{Self: addrB, Peers: []string{addrA}, Handler: hb, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New(B): %v", err)
	}
	b.downFor = 200 * time.Millisecond
	go func() { _ = b.Serve(context.Background(), lnB) }()
	t.Cleanup(func() { _ = b.Close() })
	return a, b, addrA, addrB
}

func TestNodeDetectForwardAndError(t *testing.T) {
	hb := &stubHandler{cache: map[string]string{}}
	a, _, _, addrB := twoNodes(t, &stubHandler{cache: map[string]string{}}, hb)

	_, det, cached, _, err := a.Detect(context.Background(), addrB, "fp:k1", 16000, []byte{1, 2}, obs.TraceContext{})
	if err != nil || cached {
		t.Fatalf("Detect #1 = (cached=%v, err=%v), want fresh", cached, err)
	}
	if !det.Adversarial {
		t.Errorf("forwarded verdict lost the adversarial flag")
	}
	// Second forward of the same key answers from B's cache.
	if _, _, cached, _, err = a.Detect(context.Background(), addrB, "fp:k1", 16000, []byte{1, 2}, obs.TraceContext{}); err != nil || !cached {
		t.Fatalf("Detect #2 = (cached=%v, err=%v), want cached", cached, err)
	}
	if n := hb.detects.Load(); n != 2 {
		t.Errorf("owner ran Detect %d times, want 2 (second serves from cache inside the handler)", n)
	}

	// A handler error comes back as ErrRemote, not a transport failure —
	// the peer stays healthy.
	hb.err = errors.New("fingerprint mismatch")
	if _, _, _, _, err := a.Detect(context.Background(), addrB, "fp:k2", 16000, []byte{3}, obs.TraceContext{}); !errors.Is(err, ErrRemote) {
		t.Fatalf("handler error surfaced as %v, want ErrRemote", err)
	}
	if got := a.HealthyPeers(); got != 1 {
		t.Errorf("HealthyPeers after MsgErr = %d, want 1 (MsgErr must not trip the circuit)", got)
	}
}

func TestNodeDownPeerCircuit(t *testing.T) {
	// A dead peer address: reserve a port and close the listener.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	n, _ := startNode(t, &stubHandler{cache: map[string]string{}}, func(n *Node) {
		n.dialTimeout = 200 * time.Millisecond
	}, dead)

	if _, _, _, _, err := n.Detect(context.Background(), dead, "fp:k", 16000, []byte{1}, obs.TraceContext{}); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("Detect(dead peer) = %v, want ErrPeerUnavailable", err)
	}
	// The circuit is now open: the next probe fails instantly without
	// dialing.
	start := time.Now()
	_, _, _, _, err = n.Detect(context.Background(), dead, "fp:k", 16000, []byte{1}, obs.TraceContext{})
	if !errors.Is(err, ErrPeerUnavailable) || !strings.Contains(err.Error(), "backoff") {
		t.Fatalf("circuit probe = %v, want backoff ErrPeerUnavailable", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("circuit probe took %v, want instant failure", d)
	}
	if got := n.HealthyPeers(); got != 0 {
		t.Errorf("HealthyPeers = %d, want 0", got)
	}
	// After downFor the peer is probed again (and fails again, but the
	// circuit did reset).
	time.Sleep(250 * time.Millisecond)
	if got := n.HealthyPeers(); got != 1 {
		t.Errorf("HealthyPeers after backoff expiry = %d, want 1", got)
	}
}

func TestNodeBusyFanInLimit(t *testing.T) {
	hb := &stubHandler{cache: map[string]string{}, block: make(chan struct{})}
	// B accepts exactly one in-flight peer request.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addrB := lnB.Addr().String()
	a, _ := startNode(t, &stubHandler{cache: map[string]string{}}, nil, addrB)
	b, err := New(Config{Self: addrB, Peers: []string{a.Self()}, Handler: hb, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New(B): %v", err)
	}
	b.inflight = make(chan struct{}, 1)
	go func() { _ = b.Serve(context.Background(), lnB) }()
	t.Cleanup(func() { _ = b.Close() })

	first := make(chan error, 1)
	go func() {
		_, _, _, _, err := a.Detect(context.Background(), addrB, "fp:slow", 16000, []byte{1}, obs.TraceContext{})
		first <- err
	}()
	// Wait until the slow detect is actually holding the semaphore.
	deadline := time.Now().Add(2 * time.Second)
	for hb.detects.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if hb.detects.Load() == 0 {
		t.Fatal("first Detect never reached the handler")
	}
	_, _, _, _, err = a.Detect(context.Background(), addrB, "fp:other", 16000, []byte{2}, obs.TraceContext{})
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "busy") {
		t.Fatalf("over-limit Detect = %v, want busy ErrRemote", err)
	}
	close(hb.block)
	if err := <-first; err != nil {
		t.Fatalf("first Detect failed after release: %v", err)
	}
}

func TestNodeOwner(t *testing.T) {
	a, _, addrA, addrB := twoNodes(t, &stubHandler{cache: map[string]string{}}, &stubHandler{cache: map[string]string{}})
	// Ownership is exhaustive and consistent with the ring.
	keys := syntheticKeys(500)
	sawSelf, sawPeer := false, false
	for _, k := range keys {
		addr, self := a.Owner(k)
		switch addr {
		case addrA:
			if !self {
				t.Fatalf("Owner(%q) = self address with self=false", k)
			}
			sawSelf = true
		case addrB:
			if self {
				t.Fatalf("Owner(%q) = peer address with self=true", k)
			}
			sawPeer = true
		default:
			t.Fatalf("Owner(%q) = unknown %q", k, addr)
		}
	}
	if !sawSelf || !sawPeer {
		t.Errorf("ownership not split across both replicas (self=%v peer=%v)", sawSelf, sawPeer)
	}
}

// keyEchoHandler answers every key with a verdict that carries the key in
// both transcriptions.
type keyEchoHandler struct{}

func (keyEchoHandler) Detect(_ context.Context, _ obs.TraceContext, key string, _ int, _ []byte) (string, bool, []obs.Span, error) {
	return string(AppendDetection(nil, &mvpears.Detection{Scores: []float64{0.5}, Transcriptions: map[string]string{"target": key, "aux": key}})), true, nil, nil
}

// TestNodeDetectOwnsReply: concurrent Detect calls to one peer share its
// pooled connections, and each still gets its own key's verdict — a reply
// is decoded before its connection, and the read buffer the reply sits
// in, goes back to the idle pool for another round trip to refill.
func TestNodeDetectOwnsReply(t *testing.T) {
	const goroutines, calls = 8, 2000
	_, addrB := startNode(t, keyEchoHandler{}, func(n *Node) {
		n.inflight = make(chan struct{}, goroutines) // no busy declines
	})
	a, _ := startNode(t, keyEchoHandler{}, nil, addrB)
	var wrong, failed atomic.Int64
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				key := fmt.Sprintf("fp:%d/%d", g, i)
				_, det, _, _, err := a.Detect(context.Background(), addrB, key, 16000, []byte{1, 2}, obs.TraceContext{})
				switch {
				case err != nil:
					failed.Add(1)
				case det.Transcriptions["target"] != key || det.Transcriptions["aux"] != key:
					wrong.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if w, f := wrong.Load(), failed.Load(); w != 0 || f != 0 {
		t.Fatalf("%d of %d replies carried another key's verdict, %d failed", w, goroutines*calls, f)
	}
}

// TestNodeDeclinesUnknownRequestType: a well-framed request of a type the
// node does not serve — type 1, the retired cache probe an older replica
// may still send, or an unassigned type — is answered with MsgErr on the
// live connection, which then goes on serving detections.
func TestNodeDeclinesUnknownRequestType(t *testing.T) {
	hb := &stubHandler{cache: map[string]string{}}
	_, addrB := startNode(t, hb, nil)
	conn, err := net.Dial("tcp", addrB)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	roundTrip := func(typ MsgType, payload []byte) (MsgType, []byte) {
		t.Helper()
		if _, err := conn.Write(AppendFrame(nil, typ, payload)); err != nil {
			t.Fatalf("type %d: write: %v", typ, err)
		}
		rt, rp, _, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("type %d: no reply on the connection: %v", typ, err)
		}
		return rt, rp
	}
	for _, typ := range []MsgType{1, 9} {
		rt, rp := roundTrip(typ, appendString(nil, "fp:k"))
		if rt != MsgErr {
			t.Fatalf("type %d answered with type %d, want MsgErr", typ, rt)
		}
		if msg, err := ParseErr(rp); err != nil || !strings.Contains(msg, "unexpected request type") {
			t.Errorf("type %d decline = (%q, %v)", typ, msg, err)
		}
	}
	rt, rp := roundTrip(MsgDetect, AppendDetect(nil, "fp:k", 16000, []byte{1, 2}, obs.TraceContext{}))
	if rt != MsgVerdict {
		t.Fatalf("MsgDetect after the declines answered with type %d, want MsgVerdict", rt)
	}
	if _, det, cached, _, err := ParseVerdict(rp); err != nil || cached || !det.Adversarial {
		t.Fatalf("MsgDetect verdict = (%+v, cached=%v, %v)", det, cached, err)
	}
	if n := hb.detects.Load(); n != 1 {
		t.Errorf("handler ran Detect %d times, want 1", n)
	}
}
