// Package cluster is the multi-replica tier of MVP-EARS serving: N
// mvpearsd replicas share the content-addressed verdict cache over a
// compact binary peer protocol, so cache hits compound fleet-wide
// instead of per-process.
//
// Ownership is decided by consistent hashing on the verdict-cache key
// (ring.go). Because keys are prefixed with the model fingerprint
// (internal/vcache), sharing needs no epoch or invalidation protocol: a
// replica running a different model computes different keys, and the
// owner additionally verifies the key against its own fingerprint before
// answering, so a mid-reload fleet can never cross-pollinate verdicts
// between models.
//
// The failure policy is degrade, never fail: any peer error (down,
// overloaded, version-skewed, fingerprint-mismatched) makes the caller
// fall back to local detection. The cluster tier is an optimization
// layer over a replica that is fully correct alone.
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

// Handler is the local serving capability a Node exposes to its peers.
// internal/server implements it over its verdict cache and singleflight;
// Detect must serve strictly locally (cache -> flight -> backend) and
// never re-forward, so ownership disagreement during membership skew
// cannot loop a request between replicas.
type Handler interface {
	// Detect answers for key from local cache/flight/backend with the
	// verdict's record (AppendDetection), which the node sends as it is.
	// cached reports that no fresh detection ran for this call. tc is the
	// requester's propagated trace context; when tc.Sampled the handler
	// returns its local stage spans so the requester can stitch them into
	// its trace.
	Detect(ctx context.Context, tc obs.TraceContext, key string, sampleRate int, pcm []byte) (rec string, cached bool, spans []obs.Span, err error)
}

// Config parameterizes a Node. A zero RequestTimeout gets the default.
type Config struct {
	// Self is this replica's advertised peer address. Required, and must
	// be a member of Peers (it is added if absent).
	Self string
	// Peers lists every replica's advertised peer address (the ring
	// membership). All replicas must be configured with the same set.
	Peers []string
	// Handler serves requests arriving from peers. Required for Serve.
	Handler Handler
	// RequestTimeout bounds one peer round trip including a forwarded
	// detection (default 30s).
	RequestTimeout time.Duration
	// ObserveRTT, when set, receives every successful peer round trip's
	// duration (the per-peer RTT histogram source). Called on the request
	// path; must be cheap and must not block.
	ObserveRTT func(peer string, d time.Duration)
	// OnBusyDecline, when set, is called each time this node declines a
	// peer request at the fan-in limit (rejection accounting).
	OnBusyDecline func()
}

const (
	// dialTimeout bounds one peer dial.
	dialTimeout = 500 * time.Millisecond
	// downFor is how long a peer is skipped after a transport failure. The
	// circuit keeps remote probes off a dead peer's dial timeout.
	downFor = time.Second
)

// Node is one replica's membership in the cluster: the ring, one
// persistent-connection client per peer, and the peer-facing server.
type Node struct {
	cfg  Config
	ring *Ring
	// peers maps advertised address -> client state (excludes Self).
	peers map[string]*peer

	// dialTimeout and downFor are the package constants; tests shorten
	// them on a Node they have just built.
	dialTimeout, downFor time.Duration
	// inflight is the fan-in semaphore for served peer requests: past
	// 4*GOMAXPROCS (at least 4) of them, a request gets MsgErr "busy"
	// instead of queueing unboundedly.
	inflight chan struct{}

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]bool // accepted peer connections, for Close
	closed bool
}

// New validates cfg and builds a Node (no listener yet — call Serve).
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	members := append([]string{cfg.Self}, cfg.Peers...)
	ring := NewRing(members)
	n := &Node{
		cfg:         cfg,
		ring:        ring,
		peers:       make(map[string]*peer),
		dialTimeout: dialTimeout,
		downFor:     downFor,
		inflight:    make(chan struct{}, max(4, 4*runtime.GOMAXPROCS(0))),
		conns:       make(map[net.Conn]bool),
	}
	for _, m := range ring.Members() {
		if m == cfg.Self {
			continue
		}
		n.peers[m] = &peer{addr: m, idle: make(chan *peerConn, connsPerPeer)}
	}
	return n, nil
}

// Self returns this replica's advertised address.
func (n *Node) Self() string { return n.cfg.Self }

// Owner returns the replica owning key and whether that is this one.
func (n *Node) Owner(key string) (addr string, self bool) {
	addr = n.ring.Owner(key)
	return addr, addr == n.cfg.Self
}

// HealthyPeers counts peers currently outside the failure backoff.
func (n *Node) HealthyPeers() int {
	now := time.Now().UnixNano()
	healthy := 0
	for _, p := range n.peers {
		if p.downUntil.Load() <= now {
			healthy++
		}
	}
	return healthy
}

// Members returns the ring's member set (sorted; includes Self).
func (n *Node) Members() []string { return n.ring.Members() }

// PeerStatus is one peer's health as seen from this replica.
type PeerStatus struct {
	Addr string
	// Down reports the peer is inside its transport-failure backoff.
	Down bool
}

// PeerStatuses reports every configured peer's health, sorted by address
// (the /statusz ring view).
func (n *Node) PeerStatuses() []PeerStatus {
	now := time.Now().UnixNano()
	out := make([]PeerStatus, 0, len(n.peers))
	for _, addr := range n.ring.Members() {
		if p := n.peers[addr]; p != nil {
			out = append(out, PeerStatus{Addr: addr, Down: p.downUntil.Load() > now})
		}
	}
	return out
}

// ErrPeerUnavailable wraps transport-level peer failures (the caller
// degrades to local detection).
var ErrPeerUnavailable = errors.New("cluster: peer unavailable")

// ErrRemote wraps a MsgErr answer from a peer (the peer is up but
// declined: busy, draining, fingerprint mismatch, detection failure).
var ErrRemote = errors.New("cluster: remote error")

// --- client side: persistent connections with a down-peer circuit ---

// connsPerPeer bounds the idle persistent connections kept per peer.
const connsPerPeer = 2

// peer is the client state for one remote replica.
type peer struct {
	addr string
	idle chan *peerConn
	// downUntil is a unix-nano timestamp before which the peer is
	// skipped (0 = healthy). Set on transport failure, not on MsgErr: a
	// peer answering "busy" is alive.
	downUntil atomic.Int64
}

// peerConn is one persistent connection plus its buffered reader and
// reusable frame buffers.
type peerConn struct {
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte // frame write buffer
	rbuf []byte // frame read buffer
}

// Detect forwards one detection to addr: the owner answers from its
// cache when possible, otherwise runs (or joins) the detection locally.
// cached reports the former. rec is the owner's record of the verdict and
// det the Detection parsed from it (ParseVerdict). tc propagates the
// requester's trace context; when tc.Sampled the owner's stage spans come
// back in spans for the caller to stitch. The frame copies pcm. Transport
// failures close the connection, trip the peer's down circuit and return
// ErrPeerUnavailable.
func (n *Node) Detect(ctx context.Context, addr, key string, sampleRate int, pcm []byte, tc obs.TraceContext) (rec string, det *mvpears.Detection, cached bool, spans []obs.Span, err error) {
	p, ok := n.peers[addr]
	if !ok {
		return "", nil, false, nil, fmt.Errorf("cluster: %q is not a configured peer", addr)
	}
	now := time.Now()
	if p.downUntil.Load() > now.UnixNano() {
		return "", nil, false, nil, fmt.Errorf("%w: %s in failure backoff", ErrPeerUnavailable, addr)
	}
	pc, err := n.borrowConn(ctx, p)
	if err != nil {
		p.downUntil.Store(now.Add(n.downFor).UnixNano())
		return "", nil, false, nil, fmt.Errorf("%w: dialing %s: %v", ErrPeerUnavailable, addr, err)
	}
	deadline := now.Add(n.cfg.RequestTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = pc.conn.SetDeadline(deadline)
	// A forward whose ctx is cancelled (every caller of the flight gone)
	// must unblock promptly, not at the deadline.
	stop := context.AfterFunc(ctx, func() { _ = pc.conn.SetDeadline(time.Unix(0, 1)) })
	pc.wbuf = endFrame(AppendDetect(AppendFrame(pc.wbuf[:0], MsgDetect, nil), key, sampleRate, pcm, tc), 0)
	var t MsgType
	var payload []byte
	if _, err = pc.conn.Write(pc.wbuf); err == nil {
		t, payload, pc.rbuf, err = ReadFrame(pc.br, pc.rbuf)
	}
	stop()
	if err != nil {
		_ = pc.conn.Close()
		if ctx.Err() == nil {
			p.downUntil.Store(time.Now().Add(n.downFor).UnixNano())
		}
		return "", nil, false, nil, fmt.Errorf("%w: %s: %v", ErrPeerUnavailable, addr, err)
	}
	// payload aliases the read buffer, which the next round trip on this
	// connection refills once it is back in the idle pool: decode it first.
	switch t {
	case MsgVerdict:
		rec, det, cached, spans, err = ParseVerdict(payload)
	case MsgErr:
		msg, _ := ParseErr(payload)
		err = fmt.Errorf("%w: %s", ErrRemote, msg)
	default:
		err = fmt.Errorf("%w: unexpected %d reply to Detect", ErrBadFrame, t)
	}
	_ = pc.conn.SetDeadline(time.Time{})
	n.returnConn(p, pc)
	if n.cfg.ObserveRTT != nil {
		n.cfg.ObserveRTT(addr, time.Since(now))
	}
	return rec, det, cached, spans, err
}

// borrowConn takes an idle connection or dials a fresh one.
func (n *Node) borrowConn(ctx context.Context, p *peer) (*peerConn, error) {
	select {
	case pc := <-p.idle:
		return pc, nil
	default:
	}
	d := net.Dialer{Timeout: n.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// Frames are single small-to-medium writes; coalescing delay
		// would dominate the remote-hit budget.
		_ = tc.SetNoDelay(true)
	}
	return &peerConn{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, nil
}

// returnConn parks a healthy connection for reuse (closing it when the
// pool is full or the node is shutting down).
func (n *Node) returnConn(p *peer, pc *peerConn) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		_ = pc.conn.Close()
		return
	}
	select {
	case p.idle <- pc:
	default:
		_ = pc.conn.Close()
	}
}

// --- server side: bounded fan-in over persistent connections ---

// Serve accepts peer connections on ln until ctx ends or Close. Each
// connection serves frames sequentially; concurrency across connections
// is bounded by the inflight semaphore.
func (n *Node) Serve(ctx context.Context, ln net.Listener) error {
	if n.cfg.Handler == nil {
		return errors.New("cluster: Serve requires Config.Handler")
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		// Close the listener here too: a Close racing ahead of Serve (it
		// reads n.ln before this assignment) must not leave the socket
		// open, or peers connect into the kernel backlog and hang until
		// their request deadline instead of being refused outright.
		_ = ln.Close()
		return errors.New("cluster: node is closed")
	}
	n.ln = ln
	n.mu.Unlock()
	stop := context.AfterFunc(ctx, func() { _ = ln.Close() })
	defer stop()
	for {
		conn, err := ln.Accept()
		if err != nil {
			n.mu.Lock()
			closed := n.closed
			n.mu.Unlock()
			if closed || ctx.Err() != nil {
				return nil
			}
			return err
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		n.conns[conn] = true
		n.mu.Unlock()
		go n.serveConn(ctx, conn)
	}
}

// connIdleTimeout evicts peer connections with no traffic; peers redial
// transparently.
const connIdleTimeout = 5 * time.Minute

func (n *Node) serveConn(ctx context.Context, conn net.Conn) {
	defer func() {
		_ = conn.Close()
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(conn, 32<<10)
	var rbuf, wbuf []byte
	for ctx.Err() == nil {
		_ = conn.SetReadDeadline(time.Now().Add(connIdleTimeout))
		t, payload, grown, err := ReadFrame(br, rbuf)
		rbuf = grown
		if err != nil {
			return // EOF, idle eviction, or garbage: drop the connection
		}
		_ = conn.SetWriteDeadline(time.Now().Add(n.cfg.RequestTimeout))
		wbuf = n.handleFrame(ctx, wbuf[:0], t, payload)
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}

// handleFrame serves one request frame and appends the response frame.
func (n *Node) handleFrame(ctx context.Context, dst []byte, t MsgType, payload []byte) []byte {
	// Bounded fan-in: beyond cap(n.inflight) concurrent requests the peer is
	// told "busy" immediately — it has a perfectly good local fallback,
	// so queueing here would only move its latency onto our socket.
	select {
	case n.inflight <- struct{}{}:
		defer func() { <-n.inflight }()
	default:
		if n.cfg.OnBusyDecline != nil {
			n.cfg.OnBusyDecline()
		}
		return AppendFrame(dst, MsgErr, AppendErr(nil, "busy: peer fan-in limit reached"))
	}
	rctx, cancel := context.WithTimeout(ctx, n.cfg.RequestTimeout)
	defer cancel()
	switch t {
	case MsgDetect:
		key, rate, pcm, tc, err := ParseDetect(payload)
		if err != nil {
			return AppendFrame(dst, MsgErr, AppendErr(nil, err.Error()))
		}
		rec, cached, spans, err := n.cfg.Handler.Detect(rctx, tc, key, rate, pcm)
		if err != nil {
			return AppendFrame(dst, MsgErr, AppendErr(nil, err.Error()))
		}
		return endFrame(AppendVerdict(AppendFrame(dst, MsgVerdict, nil), rec, cached, spans), len(dst))
	default:
		return AppendFrame(dst, MsgErr, AppendErr(nil, fmt.Sprintf("unexpected request type %d", t)))
	}
}

// Close shuts the node down: the listener stops, accepted connections
// close, idle client connections close. Safe to call more than once.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ln := n.ln
	for conn := range n.conns {
		_ = conn.Close()
	}
	n.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, p := range n.peers {
	drain:
		for {
			select {
			case pc := <-p.idle:
				_ = pc.conn.Close()
			default:
				break drain
			}
		}
	}
	return nil
}
