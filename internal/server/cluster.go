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
//
// Hedging (hedgedRun): a locally-owned miss that is expected to be slow
// (cost EWMA over the hedge floor) dispatches a duplicate detection to
// an idle peer after a budgeted delay; first answer wins and cancels the
// other via context. The loser's work is not wasted fleet-wide — a
// remote loser still warms its replica's cache.

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
	// HedgeAfter fixes the hedge delay. Zero derives it from the measured
	// detection cost: hedgeFactor * expected cost, disarmed under hedgeFloor.
	HedgeAfter time.Duration
}

const (
	// hedgeFactor scales the expected detection cost into the hedge delay
	// (when ClusterConfig.HedgeAfter is zero).
	hedgeFactor = 1.5
	// hedgeFloor disarms hedging when the expected detection cost is below
	// it: duplicating cheap work on a peer costs more fleet capacity than
	// the tail latency it saves.
	hedgeFloor = 20 * time.Millisecond
	// getProbeBytes is the payload size above which a cheap Get probe
	// precedes the forward: for large clips, learning "remote hit" first
	// avoids shipping megabytes the owner already has the answer for.
	getProbeBytes = 256 << 10
)

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
			s.clusterRTTSeconds.With(peer).Observe(d.Seconds())
		},
		OnBusyDecline: func() {
			s.rejectedTotal.With(rejectPeerBusy).Inc()
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

// GetCached probes the local verdict cache for a peer. The probe is a
// synchronous in-memory lookup, so the context goes unused.
func (h clusterHandler) GetCached(_ context.Context, key string) (*mvpears.Detection, bool) {
	s := h.s
	s.clusterServed.With("get").Inc()
	if s.draining.Load() {
		return nil, false
	}
	return s.lookup(key, false)
}

// Detect answers a forwarded detection strictly locally: verify the key
// against our model, then resolve it through the same chain a local upload
// takes, minus the cluster tier (fwd == nil). tc is the requester's
// propagated trace context: the local trace adopts its ID (so this
// replica's logs join the originating request's trace) and, when
// tc.Sampled, the recorded spans are returned for the requester to stitch.
func (h clusterHandler) Detect(ctx context.Context, tc obs.TraceContext, key string, sampleRate int, pcm []byte) (*mvpears.Detection, bool, []obs.Span, error) {
	s := h.s
	s.clusterServed.With("detect").Inc()
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
	if det, ok := s.lookup(key, false); ok {
		return det, true, nil, nil
	}
	// pcm aliases the connection's frame buffer; the engine's float decode
	// copies it before this call returns.
	eng, err := s.uploadEngine(st, audio.PCM16{SampleRate: sampleRate, Data: pcm})
	if err != nil {
		return nil, false, nil, err
	}
	// A local trace under the requester's trace ID (fresh when untraced):
	// the owner's engine spans feed its own stage metrics either way, and
	// the ID join makes slow-log lines on both replicas greppable by one
	// request ID.
	id := tc.TraceID
	if id == "" {
		id = obs.NewRequestID()
	}
	trace := obs.NewTrace(id)
	det, how, err := s.resolveMissed(obs.WithTrace(ctx, trace), key, nil, eng)
	if err != nil {
		return nil, false, nil, err
	}
	s.record(st, trace, "", "", det, how|forPeer, false)
	var spans []obs.Span
	if tc.Sampled {
		spans = trace.Spans()
	}
	return det, how.cachedOnWire(), spans, nil
}

// forwardPCM is the canonical PCM payload a request carries into the
// cluster tier. The data is a private copy: the handler's pooled scratch
// dies at handler return, while forwards and hedges can outlive it
// inside a detached flight.
type forwardPCM struct {
	rate int
	data []byte
}

// newForwardPCM decides whether this request participates in the cluster
// tier and, if so, snapshots the PCM. Returns nil when clustering is off
// or there is no live peer to talk to.
func (s *Server) newForwardPCM(key string, pcm audio.PCM16) *forwardPCM {
	if s.node == nil || key == "" || !s.node.HasPeers() {
		return nil
	}
	return &forwardPCM{rate: pcm.SampleRate, data: append([]byte(nil), pcm.Data...)}
}

// clusterFetch tries to answer a locally-missed key from its remote
// owner. Outcomes: (det, how, true) on a remote answer; ok=false means
// "proceed locally" (self-owned key, peer down, peer declined) — degrade,
// never fail. A remote answer records the cluster_forward span with the
// owner's own spans stitched in under it (anchored at this replica's
// round-trip start, so no cross-process clock agreement is assumed).
func (s *Server) clusterFetch(ctx context.Context, key string, fwd *forwardPCM) (*mvpears.Detection, detectHow, bool) {
	owner, self := s.node.Owner(key)
	if self {
		return nil, howFresh, false
	}
	start := time.Now()
	trace := obs.TraceFrom(ctx)
	tc := trace.Context(obs.StageClusterForward)
	var (
		det    *mvpears.Detection
		cached bool
		spans  []obs.Span
		err    error
	)
	// For large payloads a Get probe first: a remote hit then costs one
	// small round trip instead of shipping the whole clip.
	if len(fwd.data) > getProbeBytes {
		det, cached, err = s.node.Get(ctx, owner, key, tc)
	}
	if err == nil && !cached {
		det, cached, spans, err = s.node.Detect(ctx, owner, key, fwd.rate, fwd.data, tc)
	}
	if err != nil {
		s.clusterForwards.With("error").Inc()
		return nil, howFresh, false
	}
	trace.Record(obs.StageClusterForward, "", start)
	trace.RecordRemote(owner, start, spans)
	s.pipelineSeconds.With(obs.StageClusterForward).Observe(time.Since(start).Seconds())
	if cached {
		s.clusterForwards.With("hit").Inc()
		return det, howRemoteHit, true
	}
	s.clusterForwards.With("detected").Inc()
	return det, howRemoteFresh, true
}

// observeDetectCost folds one measured fresh-detection duration into the
// EWMA (alpha 1/4) that budgets the hedge delay.
func (s *Server) observeDetectCost(d time.Duration) {
	for {
		old := s.detectCostNS.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if s.detectCostNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// hedgeDelay resolves the hedge policy for one locally-owned miss:
// target peer and delay, or ok=false when hedging is disarmed (no
// cluster, no healthy peer, expected cost under the floor).
func (s *Server) hedgeDelay() (addr string, delay time.Duration, ok bool) {
	if s.node == nil || !s.node.HasPeers() {
		return "", 0, false
	}
	delay = s.cfg.Cluster.HedgeAfter
	if delay <= 0 {
		expected := time.Duration(s.detectCostNS.Load())
		if expected < hedgeFloor {
			return "", 0, false
		}
		delay = time.Duration(float64(expected) * hedgeFactor)
	}
	addr = s.node.HedgeTarget()
	return addr, delay, addr != ""
}

// hedgedRun runs one local detection, optionally racing a budget-gated
// duplicate dispatch to an idle peer. First result wins; the loser is
// cancelled through ctx. remote reports a hedge win (the peer answered
// first).
func (s *Server) hedgedRun(ctx context.Context, key string, fwd *forwardPCM,
	run func(ctx context.Context) (*mvpears.Detection, error)) (det *mvpears.Detection, remote bool, err error) {
	var (
		addr  string
		delay time.Duration
		armed bool
	)
	if fwd != nil {
		addr, delay, armed = s.hedgeDelay()
	}
	if !armed {
		det, err := run(ctx)
		return det, false, err
	}
	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	type result struct {
		det    *mvpears.Detection
		remote bool
		err    error
		// Hedge-leg trace stitch inputs: the dispatch time and the peer's
		// returned spans.
		start time.Time
		spans []obs.Span
	}
	results := make(chan result, 2) // buffered: the loser must never block
	go func() {
		det, err := run(hctx)
		results <- result{det: det, err: err}
	}()
	tc := obs.TraceFrom(ctx).Context(obs.StageClusterForward)
	timer := time.AfterFunc(delay, func() {
		s.clusterHedges.Inc()
		start := time.Now()
		det, _, spans, err := s.node.Detect(hctx, addr, key, fwd.rate, fwd.data, tc)
		results <- result{det: det, remote: true, err: err, start: start, spans: spans}
	})
	defer timer.Stop()
	hedgeWin := func(r result) {
		s.clusterHedgeWins.Inc()
		trace := obs.TraceFrom(ctx)
		trace.Record(obs.StageClusterForward, "", r.start)
		trace.RecordRemote(addr, r.start, r.spans)
	}
	first := <-results
	if first.err == nil {
		hcancel() // cancel the loser promptly (deadline poisoning unblocks its RPC)
		if first.remote {
			hedgeWin(first)
		}
		return first.det, first.remote, nil
	}
	// The first finisher failed. If the other leg is (or may be) running,
	// give it the chance to answer before failing the request.
	if first.remote || !timer.Stop() {
		second := <-results
		if second.err == nil {
			if second.remote {
				hedgeWin(second)
			}
			return second.det, second.remote, nil
		}
		if !second.remote {
			// Both legs failed: the local error drives the HTTP mapping
			// (queue-full, deadline), never a hedge transport error.
			return nil, false, second.err
		}
	}
	return nil, false, first.err
}
