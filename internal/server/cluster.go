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
// detection. The requester caches the answer locally, so repeats become
// local hits. Any peer failure degrades to local detection; a request is
// never failed because a peer is.
//
// Owner side (clusterHandler): strictly local service — cache, flight,
// backend — never re-forwarding, so membership skew cannot loop a
// request between replicas. The owner recomputes the key from the PCM
// under its own model fingerprint and declines on mismatch, keeping a
// mid-reload fleet from cross-pollinating verdicts between models.

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

// ClusterSelf returns this replica's advertised peer address ("" when
// clustering is off).
func (s *Server) ClusterSelf() string {
	if s.node == nil {
		return ""
	}
	return s.node.Self()
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
func (h clusterHandler) Detect(ctx context.Context, tc obs.TraceContext, key string, sampleRate int, pcm []byte) (*mvpears.Detection, bool, []obs.Span, error) {
	s := h.s
	s.m.counter(mClusterServed, "detect").Inc()
	if s.draining.Load() {
		return nil, false, nil, errors.New("draining")
	}
	st := s.state()
	// The requester derived key under its model fingerprint; recompute it
	// under ours. A mismatch means the fleet is mid-reload with skewed
	// models — decline, and the requester detects locally.
	if localKey := vcache.KeyPCM16(st.modelFP, sampleRate, pcm); localKey != key {
		return nil, false, nil, errors.New("model fingerprint mismatch (reload in progress?)")
	}
	if e, ok := s.lookup(key, false); ok {
		return e.detection(), true, nil, nil
	}
	// pcm aliases the connection's frame buffer; the engine's float decode
	// copies it before this call returns.
	eng, release, err := s.uploadEngine(st, audio.PCM16{SampleRate: sampleRate, Data: pcm})
	if err != nil {
		return nil, false, nil, err
	}
	defer release()
	var trace *obs.Trace // nil records nothing
	if tc.Sampled {
		trace = obs.NewTrace(tc.TraceID)
		ctx = obs.WithTrace(ctx, trace)
	}
	det, how, err := s.resolveMissed(ctx, key, nil, eng)
	if err != nil {
		return nil, false, nil, err
	}
	s.record(st, trace, "", "", det, how|forPeer, false)
	return det, how.cachedOnWire(), trace.Spans(), nil
}

// forwardPCM returns the upload a request carries into the cluster tier:
// pcm itself, or nil when clustering is off or there is no live peer to
// talk to. A forward finishes inside the request's resolve call, and the
// frame it sends is a copy, so the handler's buffer needs no snapshot.
func (s *Server) forwardPCM(key string, pcm *audio.PCM16) *audio.PCM16 {
	if s.node == nil || key == "" || !s.node.HasPeers() {
		return nil
	}
	return pcm
}

// clusterFetch tries to answer a locally-missed key from its remote
// owner. Outcomes: (det, how, true) on a remote answer; ok=false means
// "proceed locally" (self-owned key, peer down, peer declined) — degrade,
// never fail. A remote answer records the cluster_forward span with the
// owner's own spans stitched in under it (anchored at this replica's
// round-trip start, so no cross-process clock agreement is assumed).
func (s *Server) clusterFetch(ctx context.Context, key string, fwd *audio.PCM16) (*mvpears.Detection, detectHow, bool) {
	owner, self := s.node.Owner(key)
	if self {
		return nil, howFresh, false
	}
	start := time.Now()
	trace := obs.TraceFrom(ctx)
	tc := trace.Context(obs.StageClusterForward)
	det, cached, spans, err := s.node.Detect(ctx, owner, key, fwd.SampleRate, fwd.Data, tc)
	if err != nil {
		s.m.counter(mClusterForwards, "error").Inc()
		return nil, howFresh, false
	}
	trace.Record(obs.StageClusterForward, "", start)
	trace.RecordRemote(owner, start, spans)
	if cached {
		s.m.counter(mClusterForwards, "hit").Inc()
		return det, howRemoteHit, true
	}
	s.m.counter(mClusterForwards, "detected").Inc()
	return det, howRemoteFresh, true
}
