// Package server is the online serving subsystem of MVP-EARS: a
// long-lived HTTP daemon that puts a trained detection system in front of
// an ASR pipeline, the deployment the paper budgets per-query overhead
// for (§V-I). It provides
//
//   - POST /v1/detect        — one WAV upload -> verdict JSON
//   - POST /v1/detect/batch  — multipart WAVs -> per-file verdicts
//   - GET  /healthz, /readyz — liveness / readiness
//   - GET  /metrics          — Prometheus text format, hand-rolled
//
// Each detection runs on the goroutine of the request that asked for it,
// behind a fixed admission bound: overload answers 429 with Retry-After
// instead of growing goroutines, per-request deadlines cancel detection work via
// context, and Shutdown drains gracefully (stop admitting, finish
// in-flight, keep /metrics consistent).
package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mvpears"
	"mvpears/internal/cluster"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
	"mvpears/internal/stream"
	"mvpears/internal/vcache"
)

// Rejection reasons for mvpears_rejected_total, the unified load-shed
// counter: every deliberate "no" the daemon answers, regardless of which
// subsystem said it.
const (
	rejectQueueFull      = "queue_full"      // admission queue 429s
	rejectStreamSessions = "stream_sessions" // streaming session limit
	rejectPeerBusy       = "peer_busy"       // cluster busy-declines sent to peers
)

// Backend is everything the server asks of the detection system it
// fronts. *mvpears.System satisfies it; tests substitute stubs to exercise
// overload and failure paths without training engines.
type Backend interface {
	// DetectCtx classifies one clip, honoring ctx cancellation.
	DetectCtx(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error)
	// DetectBatchCtx classifies a batch in input order.
	DetectBatchCtx(ctx context.Context, clips []*mvpears.Clip) ([]*mvpears.Detection, error)
	// SampleRate is the rate uploads are resampled to.
	SampleRate() int
	// AuxiliaryNames lists the auxiliary engines, aligned with scores.
	AuxiliaryNames() []string
	// TargetName labels the target engine's windowed transcriptions.
	TargetName() string
	// Explain derives a verdict's explanation after the fact, for
	// ?explain=1 requests answered from the cache or a shared flight: the
	// encoding is deterministic in the transcriptions, so a late
	// explanation equals one computed with the verdict.
	Explain(det *mvpears.Detection) *mvpears.Explanation
	// DriftReference is the calibration-time score reference shipped with
	// the model artifact; nil leaves the drift monitor tracking
	// distributions without scoring them.
	DriftReference() *drift.Reference
	// NewStreamManager builds the session manager behind the streaming
	// endpoints (hooks included).
	NewStreamManager(opts mvpears.StreamOptions) (*stream.Manager, error)
	// DetectionFromStream converts a final streaming result into the
	// public Detection form.
	DetectionFromStream(fin *stream.Final) *mvpears.Detection
}

var _ Backend = (*mvpears.System)(nil)

// ModelFingerprinter is implemented by backends whose model has a stable
// content fingerprint (*mvpears.System hashes its persisted artifact).
// The verdict cache requires it: keys are prefixed with the fingerprint
// so a cache can never serve verdicts computed by a different model, and
// because the fingerprint is derived from the artifact bytes, keys stay
// valid across daemon restarts of the same model. A backend without a
// fingerprint serves with the cache disabled — the cache-free seam
// handler tests stand on.
type ModelFingerprinter interface {
	ModelFingerprint() (string, error)
}

var _ ModelFingerprinter = (*mvpears.System)(nil)

// Config parameterizes a Server. New gives every zero optional field its
// default; DefaultConfig shows them.
type Config struct {
	// Backend is the trained detection system. Required.
	Backend Backend
	// Workers bounds concurrent detections.
	Workers int
	// QueueDepth bounds waiting detections (zero: twice Workers). Work
	// beyond Workers+QueueDepth is rejected with 429.
	QueueDepth int
	// MaxUploadBytes bounds one WAV payload.
	MaxUploadBytes int64
	// MaxBatchFiles bounds the parts of one batch request.
	MaxBatchFiles int
	// RequestTimeout is the per-request detection deadline.
	RequestTimeout time.Duration
	// Logger receives request-level problems.
	Logger *log.Logger
	// CacheEntries bounds the verdict cache's entry count.
	CacheEntries int
	// CacheBytes bounds the verdict cache's resident bytes. The cache (and
	// singleflight collapsing) is on exactly when Backend implements
	// ModelFingerprinter and fingerprints its model.
	CacheBytes int64
	// Cache optionally injects a prebuilt verdict cache, e.g. one shared
	// across Server instances in tests. Nil builds a private cache from
	// CacheEntries/CacheBytes.
	Cache *vcache.Cache[*verdictEntry]
	// AccessLog receives structured JSON request logs (one line per
	// sampled request). Nil disables access logging.
	AccessLog io.Writer
	// LogSampleRate is the fraction of ordinary requests to log: 1 logs
	// all, 0 none; slow requests and 5xx responses always log. Nil logs
	// every request.
	LogSampleRate *float64
	// SlowRequestThreshold is the latency at which a request always logs
	// with full span detail.
	SlowRequestThreshold time.Duration
	// Audit, when non-nil, receives one JSONL entry per adversarial
	// verdict served.
	Audit *obs.AuditSink
	// Stream, when non-nil, enables the live streaming endpoints
	// (/v1/detect/stream and /v1/detect/ws).
	Stream *StreamConfig
	// Reload, when non-nil, loads a replacement backend for zero-downtime
	// hot model reload (Server.Reload, POST /reloadz on the admin
	// listener, SIGHUP in mvpearsd). See reload.go.
	Reload func() (Backend, error)
	// Cluster, when non-nil, joins this server to a replica fleet that
	// shares the verdict cache (consistent hashing on the cache key).
	// Requires the cache. See cluster.go.
	Cluster *ClusterConfig
	// Drift tunes the detection-quality drift monitor (always on). The
	// server owns its OnDrift: a trip is logged and audited, and a caller's
	// OnDrift is replaced.
	Drift drift.Config
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 16 << 20
	}
	if c.MaxBatchFiles <= 0 {
		c.MaxBatchFiles = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.LogSampleRate == nil {
		all := 1.0
		c.LogSampleRate = &all
	}
	if c.SlowRequestThreshold <= 0 {
		c.SlowRequestThreshold = time.Second
	}
	c.Drift.ApplyDefaults()
}

// DefaultConfig returns the values New gives the zero fields, except
// QueueDepth, which New derives from Workers. mvpearsd seeds its flags
// with it, so every default is written once, in applyDefaults.
func DefaultConfig() Config {
	var c Config
	c.applyDefaults()
	c.QueueDepth = 0
	return c
}

// Server is one mvpearsd instance: handlers, worker pool and metrics.
type Server struct {
	cfg      Config
	pool     *workerPool
	mux      *http.ServeMux
	httpSrv  *http.Server
	draining atomic.Bool

	// m renders the metric table; inFlight counts requests inside a
	// handler, read by mvpears_in_flight_requests at scrape time.
	m        *Registry
	inFlight atomic.Int64
	// reqLog writes the structured access log; nil when disabled.
	reqLog *obs.RequestLogger
	// start anchors the daemon's uptime (for /infoz).
	start time.Time

	// be holds the current backendState: the model-derived identity
	// (backend, fingerprint, auxiliary names, stream manager) that hot
	// reload swaps atomically. See reload.go.
	be atomic.Pointer[backendState]
	// reloadInProgress gates /readyz to 503 while a replacement model is
	// loading (the CPU-heavy part of a reload).
	reloadInProgress atomic.Bool
	// retiring counts the goroutines retiring the stream managers Reload
	// superseded; Shutdown closes stopping to end them at once. retireMu
	// orders each retiring.Add before that close, so none races the Wait.
	retireMu sync.Mutex
	retiring sync.WaitGroup
	stopping chan struct{}
	// streamSessions counts open streaming sessions on every stream
	// manager, superseded ones included.
	streamSessions atomic.Int64

	// vc is the cross-request verdict cache; nil when caching is off.
	vc *vcache.Cache[*verdictEntry]
	// flight collapses concurrent duplicate detections onto one leader.
	flight *vcache.Group[*verdictEntry]

	// node is the cluster peer node; nil when clustering is off. See
	// cluster.go for the requester/owner split.
	node *cluster.Node
	// clusterCancel stops the peer listener's accept loop on Shutdown.
	clusterCancel context.CancelFunc

	// driftMon scores live detection-quality distributions against the
	// model's calibration reference; probe watches query shapes for
	// mutate-one-sample probing campaigns. Both always exist.
	driftMon *drift.Monitor
	probe    *drift.ProbeWatcher
	// buildVersion is resolved once from the embedded build info (for
	// mvpears_build_info and /statusz).
	buildVersion string
}

// buildVCS extracts the VCS revision and commit time baked into the binary
// ("dev" and "" for unstamped test builds).
func buildVCS() (revision, time string) {
	revision = "dev"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch {
			case kv.Key == "vcs.revision" && kv.Value != "":
				revision = kv.Value
			case kv.Key == "vcs.time":
				time = kv.Value
			}
		}
	}
	return revision, time
}

// New validates cfg, applies defaults and assembles a Server (no
// listening socket yet — use Serve, or Handler for tests).
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("server: Config.Backend is required")
	}
	cfg.applyDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     newWorkerPool(cfg.Workers, cfg.QueueDepth),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		stopping: make(chan struct{}),
	}
	if cfg.AccessLog != nil {
		s.reqLog = obs.NewRequestLogger(cfg.AccessLog, *cfg.LogSampleRate, cfg.SlowRequestThreshold)
	}
	if fper, ok := cfg.Backend.(ModelFingerprinter); !ok {
		cfg.Logger.Printf("mvpearsd: verdict cache disabled: backend exposes no model fingerprint")
	} else if _, err := fper.ModelFingerprint(); err != nil {
		cfg.Logger.Printf("mvpearsd: verdict cache disabled: fingerprinting model: %v", err)
	} else {
		s.vc = cfg.Cache
		if s.vc == nil {
			s.vc = vcache.New[*verdictEntry](cfg.CacheEntries, cfg.CacheBytes)
		}
		s.flight = &vcache.Group[*verdictEntry]{Timeout: cfg.RequestTimeout}
	}

	// Detection-quality drift: the monitor exists regardless of whether
	// the backend carries a calibration reference (without one, scores
	// stay 0 and drift never trips). A trip is logged and audited.
	driftCfg := cfg.Drift
	driftCfg.OnDrift = func(v drift.Verdict) {
		cfg.Logger.Printf("mvpearsd: drift detected: family=%s score=%.3f threshold=%.3f samples=%d",
			v.Family, v.Score, v.Threshold, v.Samples)
		if cfg.Audit != nil {
			cfg.Audit.WriteDrift(obs.DriftEvent{
				Time:      time.Now(),
				Family:    v.Family,
				Score:     v.Score,
				Threshold: v.Threshold,
				Samples:   v.Samples,
			})
		}
	}
	s.driftMon = drift.New(driftCfg)
	s.probe = drift.NewProbeWatcher(0)

	// Every sampled family binds its read function here; the rest are
	// updated on the request path.
	s.buildVersion, _ = buildVCS()
	s.m = newRegistry(families[:], map[metricID]sampler{
		mInFlight:           func(emit emitFunc) { emit(float64(s.inFlight.Load())) },
		mQueueDepth:         func(emit emitFunc) { emit(float64(s.pool.QueueLen())) },
		mCacheHits:          func(emit emitFunc) { emit(float64(s.cacheStats().Hits)) },
		mCacheMisses:        func(emit emitFunc) { emit(float64(s.cacheStats().Misses)) },
		mCacheEvictions:     func(emit emitFunc) { emit(float64(s.cacheStats().Evictions)) },
		mCacheResidentBytes: func(emit emitFunc) { emit(float64(s.cacheStats().Bytes)) },
		mCacheEntries:       func(emit emitFunc) { emit(float64(s.cacheStats().Entries)) },
		mCollapsed: func(emit emitFunc) {
			var n uint64
			if s.flight != nil {
				n = s.flight.Collapsed()
			}
			emit(float64(n))
		},
		mStreamSessionsOpen: func(emit emitFunc) { emit(float64(s.streamSessions.Load())) },
		mClusterPeersHealthy: func(emit emitFunc) {
			n := 0
			if s.node != nil {
				n = s.node.HealthyPeers()
			}
			emit(float64(n))
		},
		mDriftScore: func(emit emitFunc) {
			for _, v := range s.driftMon.Evaluate() {
				emit(v.Score, v.Family)
			}
		},
		mProbeSuspicion: func(emit emitFunc) { emit(s.probe.Suspicion()) },
		mAuditDropped:   func(emit emitFunc) { emit(float64(cfg.Audit.Dropped())) },
		// Identity gauges: constant 1, identity in the labels. The model
		// gauge reads the live backend state, so a hot reload flips
		// /metrics and /infoz from the same atomic pointer.
		mBuildInfo: func(emit emitFunc) { emit(1, s.buildVersion, runtime.Version()) },
		mModelInfo: func(emit emitFunc) {
			fp := ""
			if st := s.be.Load(); st != nil {
				fp = st.modelFP
			}
			emit(1, fp)
		},
	})
	// Pre-create the rejection reasons so the exposition shape does not
	// depend on which rejection fired first, and the detect route's latency
	// histogram, so a burn-rate rule over its le="0.25" bucket and its count
	// sees the series, at 0, before the first request.
	for _, reason := range []string{rejectQueueFull, rejectStreamSessions, rejectPeerBusy} {
		s.m.counter(mRejected, reason)
	}
	s.m.histogram(mRequestSeconds, "detect")

	st, err := s.buildState(cfg.Backend)
	if err != nil {
		return nil, err
	}
	s.be.Store(st)
	if cfg.Cluster != nil {
		if err := s.startCluster(cfg.Cluster); err != nil {
			return nil, err
		}
	}

	s.mux.Handle("/v1/detect", s.instrument("detect", postOnly("use POST with a WAV body", s.handleDetect)))
	s.mux.Handle("/v1/detect/batch", s.instrument("detect_batch", postOnly("use POST with multipart WAV parts", s.handleDetectBatch)))
	s.mux.Handle("/v1/detect/stream", s.instrument("detect_stream", postOnly("use POST with a chunked WAV body", s.handleDetectStream)))
	s.mux.Handle("/v1/detect/ws", s.instrument("detect_ws", s.handleDetectWS))
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          cfg.Logger,
	}
	return s, nil
}

// cacheStats snapshots the verdict-cache counters (zeros when disabled).
func (s *Server) cacheStats() vcache.Stats {
	if s.vc == nil {
		return vcache.Stats{}
	}
	return s.vc.Stats()
}

// Handler exposes the routed handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. Like net/http, it
// returns http.ErrServerClosed after a graceful shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// Shutdown drains the server gracefully: readiness flips to 503, the
// listener stops accepting, in-flight requests run to completion within
// ctx, then the admission bound closes and waits for every detection it
// admitted. Safe to call once per Server.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Streaming sessions are cut, not drained: a live microphone never
	// ends on its own, so open sessions — on the current model's manager
	// and on any a reload superseded — fail fast with a stream error event
	// instead of pinning the drain until its deadline.
	s.retireMu.Lock()
	close(s.stopping)
	s.retireMu.Unlock()
	s.retiring.Wait()
	if st := s.state(); st.stream != nil {
		st.stream.Close()
	}
	// The peer listener stops first so other replicas fail over to their
	// local path instead of queueing work behind a draining peer.
	if s.node != nil {
		s.clusterCancel()
		s.node.Close()
	}
	err := s.httpSrv.Shutdown(ctx)
	s.pool.Close()
	return err
}

// DumpMetrics renders the current metric values (the daemon's final
// flush on shutdown).
func (s *Server) DumpMetrics(w io.Writer) error {
	return s.m.Render(w)
}

// RunUntilSignal serves on ln until one of sigs arrives (or serving fails
// on its own), then drains gracefully within drainTimeout. It returns nil
// after a clean signal-triggered drain.
func (s *Server) RunUntilSignal(ln net.Listener, drainTimeout time.Duration, sigs ...os.Signal) error {
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, sigs...)
	defer signal.Stop(sigCh)

	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigCh:
		s.cfg.Logger.Printf("mvpearsd: received %v, draining (timeout %v)", sig, drainTimeout)
		//lint:allow ctxflow the drain deadline must outlive every request context: it bounds shutdown itself, not a request
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			return fmt.Errorf("server: draining: %w", err)
		}
		if err := <-serveErr; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}
