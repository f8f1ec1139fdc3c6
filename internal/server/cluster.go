package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/cluster"
	"mvpears/internal/obs"
	"mvpears/internal/vcache"
)

// Clustering glue: how one Server participates in a replica fleet.
//
// Requester side (clusterFetch): on a local cache miss, the consistent
// hash decides which replica owns the key. A remotely-owned key forwards
// the whole detection (key + PCM) to the owner in one round trip; the
// owner answers from its cache (a remote hit, a small fraction of a
// cascade miss) or runs the detection itself under its own singleflight —
// which is what collapses a fleet-wide duplicate storm to exactly one
// detection. The requester caches the owner's record as it came, so
// repeats become local hits on the same bytes. Any peer failure, a reply
// that does not parse included, degrades to local detection; a request is
// never failed because a peer is.
//
// Owner side (clusterHandler): strictly local service — cache, flight,
// backend — never re-forwarding, so membership skew cannot loop a
// request between replicas; the key's entry's record goes onto the wire
// as it is. The owner recomputes the key from the PCM under its own model
// fingerprint and declines on mismatch, keeping a mid-reload fleet from
// cross-pollinating verdicts between models.

// ClusterConfig configures the replica fleet membership of a Server.
type ClusterConfig struct {
	// Addr is the peer-protocol listen address (required unless Listener
	// is set).
	Addr string
	// Self is the address advertised to peers (default: the bound
	// listener address; set it when Addr binds a wildcard interface).
	Self string
	// Peers lists the other replicas' advertised peer addresses.
	Peers []string
	// Listener optionally injects a pre-bound peer listener (tests).
	Listener net.Listener
}

// startCluster validates cc, binds the peer listener and joins the ring.
func (s *Server) startCluster(cc *ClusterConfig) error {
	if s.vc == nil {
		return errors.New("server: clustering requires the verdict cache (content-addressed keys decide ownership)")
	}
	ln := cc.Listener
	if ln == nil {
		if cc.Addr == "" {
			return errors.New("server: ClusterConfig needs Addr or Listener")
		}
		var err error
		ln, err = net.Listen("tcp", cc.Addr)
		if err != nil {
			return fmt.Errorf("server: binding cluster listener on %s: %w", cc.Addr, err)
		}
	}
	self := cc.Self
	if self == "" {
		self = ln.Addr().String()
	}
	node, err := cluster.New(cluster.Config{
		Self:           self,
		Peers:          cc.Peers,
		Handler:        clusterHandler{s},
		RequestTimeout: s.cfg.RequestTimeout,
		ObserveRTT: func(peer string, d time.Duration) {
			s.m.histogram(mClusterRTTSeconds, peer).Observe(d.Seconds())
		},
		OnBusyDecline: func() {
			s.m.counter(mRejected, rejectPeerBusy).Inc()
		},
	})
	if err != nil {
		_ = ln.Close()
		return err
	}
	s.node = node
	//lint:allow ctxflow the peer listener's lifetime is the server's own, not any single request's
	ctx, cancel := context.WithCancel(context.Background())
	s.clusterCancel = cancel
	go func() {
		if err := node.Serve(ctx, ln); err != nil {
			s.cfg.Logger.Printf("mvpearsd: cluster listener: %v", err)
		}
	}()
	s.cfg.Logger.Printf("mvpearsd: cluster enabled, self %s, %d peer(s)", self, len(cc.Peers))
	return nil
}

// clusterHandler serves the peer protocol over the Server's local
// cache/flight/backend. It never re-forwards (see package comment).
type clusterHandler struct{ s *Server }

// Detect answers a forwarded detection strictly locally: verify the key
// against our model, then resolve it through the same chain a local upload
// takes, minus the cluster tier (fwd == nil). tc is the requester's
// propagated trace context: when tc.Sampled, the detection is traced under
// the requester's trace ID and its spans are returned for the requester to
// stitch.
func (h clusterHandler) Detect(ctx context.Context, tc obs.TraceContext, key string, sampleRate int, pcm []byte) (string, bool, []obs.Span, error) {
	s := h.s
	s.m.counter(mClusterServed, "detect").Inc()
	if s.draining.Load() {
		return "", false, nil, errors.New("draining")
	}
	st := s.state()
	// The requester derived key under its model fingerprint; recompute it
	// under ours. A mismatch means the fleet is mid-reload with skewed
	// models — decline, and the requester detects locally.
	if localKey := vcache.KeyPCM16(st.modelFP, sampleRate, pcm); localKey != key {
		return "", false, nil, errors.New("model fingerprint mismatch (reload in progress?)")
	}
	if e, ok := s.lookup(key, false); ok {
		return e.rec, true, nil, nil
	}
	// pcm aliases the connection's frame buffer; the engine's float decode
	// copies it before this call returns.
	eng := s.uploadEngine(st, audio.PCM16{SampleRate: sampleRate, Data: pcm})
	var trace *obs.Trace // nil records nothing
	if tc.Sampled {
		trace = obs.NewTrace(tc.TraceID)
		ctx = obs.WithTrace(ctx, trace)
	}
	e, det, how, err := s.resolveMissed(ctx, key, nil, eng)
	if err != nil {
		return "", false, nil, err
	}
	if how.ranHere() { // the peer serves the verdict; this replica observes what it ran
		s.record(st, trace, "", "", det, how|forPeer, false)
	}
	return e.rec, how.cachedOnWire(), trace.Spans(), nil
}

// clusterFetch tries to answer a locally-missed key from its remote
// owner: (owner's record, Detection parsed from it, how, true), or
// ok=false to proceed locally (clustering off, self-owned key, peer down
// or declined, reply malformed) — degrade, never fail. A remote answer
// records the cluster_forward span with the owner's spans stitched in
// under it (anchored at this replica's round-trip start, so no
// cross-process clock agreement is assumed). The frame copies fwd.
func (s *Server) clusterFetch(ctx context.Context, key string, fwd *audio.PCM16) (string, *mvpears.Detection, detectHow, bool) {
	if s.node == nil {
		return "", nil, howFresh, false
	}
	owner, self := s.node.Owner(key)
	if self {
		return "", nil, howFresh, false
	}
	start := time.Now()
	trace := obs.TraceFrom(ctx)
	tc := trace.Context(obs.StageClusterForward)
	rec, det, cached, spans, err := s.node.Detect(ctx, owner, key, fwd.SampleRate, fwd.Data, tc)
	if err != nil {
		s.m.counter(mClusterForwards, "error").Inc()
		return "", nil, howFresh, false
	}
	trace.Record(obs.StageClusterForward, "", start)
	trace.RecordRemote(owner, start, spans)
	if cached {
		s.m.counter(mClusterForwards, "hit").Inc()
		return rec, det, howRemoteHit, true
	}
	s.m.counter(mClusterForwards, "detected").Inc()
	return rec, det, howRemoteFresh, true
}
