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
	"sync/atomic"
	"time"

	"mvpears"
	"mvpears/internal/cluster"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
	"mvpears/internal/obs/slo"
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

// SLOTargets declares the good-event fractions for the daemon's built-in
// service-level objectives. Zero values get defaults (applyDefaults).
type SLOTargets struct {
	// Latency is the fraction of detect requests that must answer within
	// 250ms. The bound rides the existing request-latency histogram's
	// 0.25s bucket boundary.
	Latency float64
	// Availability is the fraction of HTTP requests that must not 5xx.
	Availability float64
	// Quality is the fraction of verdicts that must be served while no
	// drift family is tripped.
	Quality float64
}

func (t *SLOTargets) applyDefaults() {
	if t.Latency <= 0 {
		t.Latency = 0.99
	}
	if t.Availability <= 0 {
		t.Availability = 0.999
	}
	if t.Quality <= 0 {
		t.Quality = 0.99
	}
}

// sloDetectLatencyBound is the latency SLO's good-event bound. It must
// sit on a DefaultLatencyBuckets boundary so CountAtOrBelow is exact.
const sloDetectLatencyBound = 0.25

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
	// Drift tunes the detection-quality drift monitor (always on).
	// Config.Drift.OnDrift is chained after the built-in audit hook.
	Drift drift.Config
	// SLO sets the built-in objectives' targets.
	SLO SLOTargets
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
	c.SLO.applyDefaults()
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

	metrics *Registry
	// requestsTotal counts finished HTTP requests by route and status.
	requestsTotal *CounterVec
	// requestSeconds tracks request latency by route.
	requestSeconds *HistogramVec
	// stageSeconds tracks the per-stage detection cost (§V-I split).
	stageSeconds *HistogramVec
	// pipelineSeconds tracks the traced pipeline spans by stage (decode /
	// transcribe / phonetic / similarity / classify).
	pipelineSeconds *HistogramVec
	// engineSeconds tracks per-engine transcription wall time.
	engineSeconds *HistogramVec
	// engineSimilarity tracks the target-vs-auxiliary similarity score
	// distribution per auxiliary engine (score drift = AE early warning).
	engineSimilarity *HistogramVec
	// minSimilarity tracks the per-detection minimum auxiliary score.
	minSimilarity *Histogram
	// detectionsTotal counts verdicts served.
	detectionsTotal *CounterVec
	// cascadeEnginesRun tracks how many auxiliary engines each cascaded
	// detection actually ran (short-circuits land in the low buckets).
	cascadeEnginesRun *Histogram
	// cascadeShortCircuits counts detections the cascade answered from the
	// partial similarity vector without running the full ensemble.
	cascadeShortCircuits *Counter
	// cascadeSampledFull counts the deterministic 1-in-N full-ensemble
	// monitoring runs; divided by cascadeEnginesRun's count it is the
	// observed sampling fraction.
	cascadeSampledFull *Counter
	// inFlight gauges requests currently inside a handler.
	inFlight *Gauge
	// queueRejected is rejectedTotal's queue_full child: 429s from the
	// admission queue.
	queueRejected *Counter
	// panicsTotal counts recovered handler panics.
	panicsTotal *Counter
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
	// reloadsTotal counts completed reloads (also /infoz and /statusz);
	// reloadFailures the ones that kept the old model.
	reloadsTotal   *Counter
	reloadFailures *Counter

	// vc is the cross-request verdict cache; nil when caching is off.
	vc *vcache.Cache[*verdictEntry]
	// flight collapses concurrent duplicate detections onto one leader.
	flight *vcache.Group[*mvpears.Detection]

	// node is the cluster peer node; nil when clustering is off. See
	// cluster.go for the requester/owner split.
	node *cluster.Node
	// clusterCancel stops the peer listener's accept loop on Shutdown.
	clusterCancel context.CancelFunc
	// Cluster metrics, always registered (zero when clustering is off) so
	// the exposition shape does not depend on configuration.
	clusterForwards *CounterVec
	clusterServed   *CounterVec

	// Streaming metrics, always registered (zero when streaming is off)
	// so the exposition shape does not depend on configuration.
	streamSessions      *Counter
	streamEvicted       *Counter
	streamWindows       *CounterVec
	streamEarlyExits    *Counter
	streamWindowSeconds *Histogram

	// clusterRTTSeconds tracks per-peer RPC round-trip time (the wire
	// half of a forward, as the requester sees it).
	clusterRTTSeconds *HistogramVec
	// rejectedTotal unifies load-shed rejections across subsystems by
	// reason (queue_full / stream_sessions / peer_busy).
	rejectedTotal *CounterVec

	// driftMon scores live detection-quality distributions against the
	// model's calibration reference; probe watches query shapes for
	// mutate-one-sample probing campaigns. Both always exist.
	driftMon *drift.Monitor
	probe    *drift.ProbeWatcher
	// sloEng evaluates the built-in objectives' burn rates at scrape
	// time (no background goroutine; see internal/obs/slo).
	sloEng *slo.Engine
	// slo* atomics are the raw counters behind the availability and
	// quality objectives (requestsTotal children are not introspectable
	// per-status, and verdict quality needs the drift verdict at serve
	// time).
	sloHTTPTotal       atomic.Uint64
	sloHTTP5xx         atomic.Uint64
	sloVerdicts        atomic.Uint64
	sloVerdictsDrifted atomic.Uint64
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
		cfg:     cfg,
		pool:    newWorkerPool(cfg.Workers, cfg.QueueDepth),
		mux:     http.NewServeMux(),
		metrics: NewRegistry(),
		start:   time.Now(),
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
		s.flight = &vcache.Group[*mvpears.Detection]{Timeout: cfg.RequestTimeout}
	}
	s.requestsTotal = s.metrics.CounterVec(
		"mvpears_requests_total", "Finished HTTP requests.", "route", "code")
	s.requestSeconds = s.metrics.HistogramVec(
		"mvpears_request_duration_seconds", "End-to-end request latency.",
		DefaultLatencyBuckets, "route")
	s.stageSeconds = s.metrics.HistogramVec(
		"mvpears_detect_stage_seconds", "Per-stage detection cost (recognition/similarity/classify).",
		DefaultLatencyBuckets, "stage")
	s.pipelineSeconds = s.metrics.HistogramVec(
		"mvpears_stage_seconds", "Traced pipeline span wall time by stage (decode/transcribe/phonetic/similarity/classify).",
		DefaultLatencyBuckets, "stage")
	s.engineSeconds = s.metrics.HistogramVec(
		"mvpears_engine_seconds", "Per-engine transcription wall time.",
		DefaultLatencyBuckets, "engine")
	s.engineSimilarity = s.metrics.HistogramVec(
		"mvpears_engine_similarity", "Target-vs-auxiliary similarity score distribution per auxiliary engine.",
		SimilarityBuckets, "engine")
	s.minSimilarity = s.metrics.Histogram(
		"mvpears_engine_min_similarity", "Per-detection minimum auxiliary similarity score (transferable-AE early warning).",
		SimilarityBuckets)
	s.detectionsTotal = s.metrics.CounterVec(
		"mvpears_detections_total", "Verdicts served.", "verdict")
	// Cascade series are always registered (zero without -cascade-margin)
	// so the exposition shape does not depend on backend configuration.
	s.cascadeEnginesRun = s.metrics.Histogram(
		"mvpears_cascade_engines_run", "Auxiliary engines run per cascaded detection.",
		EngineCountBuckets)
	s.cascadeShortCircuits = s.metrics.Counter(
		"mvpears_cascade_short_circuits_total", "Detections answered from a partial similarity vector (auxiliaries skipped).")
	s.cascadeSampledFull = s.metrics.Counter(
		"mvpears_cascade_sampled_full_total", "Deterministic 1-in-N full-ensemble monitoring runs under the cascade.")
	s.inFlight = s.metrics.Gauge(
		"mvpears_in_flight_requests", "Requests currently being handled.")
	s.metrics.GaugeFunc(
		"mvpears_queue_depth", "Detections waiting in the admission queue.",
		func() float64 { return float64(s.pool.QueueLen()) })
	s.panicsTotal = s.metrics.Counter(
		"mvpears_handler_panics_total", "Handler panics recovered into 500s.")
	s.metrics.GaugeFunc(
		"mvpears_worker_pool_size", "Configured detection workers.",
		func() float64 { return float64(cfg.Workers) })
	// Verdict-cache series are always registered (zero when disabled) so
	// the exposition shape does not depend on the backend.
	s.metrics.CounterFunc(
		"mvpears_cache_hits_total", "Verdicts served from the cross-request cache.",
		func() uint64 { return s.cacheStats().Hits })
	s.metrics.CounterFunc(
		"mvpears_cache_misses_total", "Verdict-cache lookups that ran a detection.",
		func() uint64 { return s.cacheStats().Misses })
	s.metrics.CounterFunc(
		"mvpears_cache_evictions_total", "Verdicts evicted by entry or byte pressure.",
		func() uint64 { return s.cacheStats().Evictions })
	s.metrics.GaugeFunc(
		"mvpears_cache_resident_bytes", "Approximate bytes held by cached verdicts.",
		func() float64 { return float64(s.cacheStats().Bytes) })
	s.metrics.GaugeFunc(
		"mvpears_cache_entries", "Verdicts currently cached.",
		func() float64 { return float64(s.cacheStats().Entries) })
	s.metrics.CounterFunc(
		"mvpears_singleflight_collapsed_total", "Requests that shared another request's in-flight detection.",
		func() uint64 {
			if s.flight == nil {
				return 0
			}
			return s.flight.Collapsed()
		})

	s.streamSessions = s.metrics.Counter(
		"mvpears_stream_sessions_total", "Streaming sessions opened.")
	s.streamEvicted = s.metrics.Counter(
		"mvpears_stream_evicted_total", "Streaming sessions evicted after the idle timeout.")
	s.streamWindows = s.metrics.CounterVec(
		"mvpears_stream_windows_total", "Provisional sliding-window verdicts emitted.", "verdict")
	s.streamEarlyExits = s.metrics.Counter(
		"mvpears_stream_early_exits_total", "Streaming sessions flagged adversarial before end-of-stream.")
	s.streamWindowSeconds = s.metrics.Histogram(
		"mvpears_stream_window_seconds", "Per-window evaluation wall time: gate, the feedforward engines' first forward of each ungated frame the window covers (not paid when the audio arrived), decode, scoring.",
		DefaultLatencyBuckets)
	s.metrics.GaugeFunc(
		"mvpears_stream_sessions_open", "Streaming sessions currently open.",
		func() float64 {
			st := s.be.Load()
			if st == nil || st.stream == nil {
				return 0
			}
			return float64(st.stream.OpenSessions())
		})

	// Cluster + reload series are always registered (zero when the feature
	// is off) so the exposition shape does not depend on configuration.
	s.clusterForwards = s.metrics.CounterVec(
		"mvpears_cluster_forwards_total", "Detect requests forwarded to their owning peer, by outcome.", "outcome")
	s.clusterServed = s.metrics.CounterVec(
		"mvpears_cluster_served_total", "Peer-protocol requests served for other replicas, by operation.", "op")
	s.metrics.GaugeFunc(
		"mvpears_cluster_peers_healthy", "Configured peers currently outside the failure backoff.",
		func() float64 {
			if s.node == nil {
				return 0
			}
			return float64(s.node.HealthyPeers())
		})
	s.reloadsTotal = s.metrics.Counter(
		"mvpears_model_reloads_total", "Completed hot model reloads.")
	s.reloadFailures = s.metrics.Counter(
		"mvpears_model_reload_failures_total", "Hot model reloads that failed (old model kept serving).")
	s.clusterRTTSeconds = s.metrics.HistogramVec(
		"mvpears_cluster_rtt_seconds", "Peer RPC round-trip time as the requester sees it.",
		DefaultLatencyBuckets, "peer")
	s.rejectedTotal = s.metrics.CounterVec(
		"mvpears_rejected_total", "Deliberate load-shed rejections across all subsystems, by reason.", "reason")
	// Pre-create the reason children so the exposition shape does not
	// depend on which rejection fired first.
	for _, reason := range []string{rejectQueueFull, rejectStreamSessions, rejectPeerBusy} {
		s.rejectedTotal.With(reason)
	}
	s.queueRejected = s.rejectedTotal.With(rejectQueueFull)

	// Detection-quality drift: the monitor exists regardless of whether
	// the backend carries a calibration reference (without one, scores
	// stay 0 and drift never trips). The audit hook is built in; a
	// user-supplied OnDrift chains after it.
	driftCfg := cfg.Drift
	userOnDrift := driftCfg.OnDrift
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
		if userOnDrift != nil {
			userOnDrift(v)
		}
	}
	s.driftMon = drift.New(driftCfg)
	s.probe = drift.NewProbeWatcher(0)
	s.metrics.GaugeVecFunc(
		"mvpears_drift_score", "Divergence of each live detection-quality family from its calibration reference (total-variation distance for distributions, absolute difference for rates).",
		func() []LabeledValue {
			verdicts := s.driftMon.Evaluate()
			out := make([]LabeledValue, len(verdicts))
			for i, v := range verdicts {
				out[i] = LabeledValue{Values: []string{v.Family}, Value: v.Score}
			}
			return out
		}, "family")
	s.metrics.GaugeFunc(
		"mvpears_probe_suspicion", "Fraction of recent detect uploads that were near-duplicates of earlier uploads (mutate-one-sample probing signal).",
		func() float64 { return s.probe.Suspicion() })
	s.metrics.CounterFunc(
		"mvpears_audit_dropped_total", "Audit entries dropped by the sink's retention or write-failure policy.",
		func() uint64 {
			if cfg.Audit == nil {
				return 0
			}
			return cfg.Audit.Dropped()
		})

	// Service-level objectives, evaluated lazily at scrape time from the
	// counters the serving path already maintains.
	s.sloEng = slo.New(slo.Config{Objectives: []slo.Objective{
		{
			Name:   "detect_latency",
			Target: cfg.SLO.Latency,
			Source: func() (bad, total float64) {
				h := s.requestSeconds.With("detect")
				n := float64(h.Count())
				return n - float64(h.CountAtOrBelow(sloDetectLatencyBound)), n
			},
		},
		{
			Name:   "availability",
			Target: cfg.SLO.Availability,
			Source: func() (bad, total float64) {
				return float64(s.sloHTTP5xx.Load()), float64(s.sloHTTPTotal.Load())
			},
		},
		{
			Name:   "verdict_quality",
			Target: cfg.SLO.Quality,
			Source: func() (bad, total float64) {
				return float64(s.sloVerdictsDrifted.Load()), float64(s.sloVerdicts.Load())
			},
		},
	}})
	s.metrics.GaugeVecFunc(
		"mvpears_slo_burn_rate", "Error-budget burn rate per objective and window (1 = spending exactly the budget).",
		func() []LabeledValue {
			st := s.sloEng.Status(time.Now())
			out := make([]LabeledValue, 0, 2*len(st))
			for _, o := range st {
				out = append(out,
					LabeledValue{Values: []string{o.Name, "fast"}, Value: o.FastBurn},
					LabeledValue{Values: []string{o.Name, "slow"}, Value: o.SlowBurn})
			}
			return out
		}, "slo", "window")
	s.metrics.GaugeVecFunc(
		"mvpears_slo_objective", "Configured good-event target per objective.",
		func() []LabeledValue {
			objs := s.sloEng.Objectives()
			out := make([]LabeledValue, len(objs))
			for i, o := range objs {
				out[i] = LabeledValue{Values: []string{o.Name}, Value: o.Target}
			}
			return out
		}, "slo")
	s.metrics.GaugeVecFunc(
		"mvpears_slo_alerting", "1 when both the fast and slow burn windows exceed the alerting burn rate.",
		func() []LabeledValue {
			st := s.sloEng.Status(time.Now())
			out := make([]LabeledValue, len(st))
			for i, o := range st {
				v := 0.0
				if o.Alerting {
					v = 1
				}
				out[i] = LabeledValue{Values: []string{o.Name}, Value: v}
			}
			return out
		}, "slo")

	// Build/model identity gauges: constant 1, identity in the labels.
	// The model gauge reads the live backend state at render time, so a
	// hot reload flips /metrics and /infoz from the same atomic pointer.
	s.buildVersion, _ = buildVCS()
	s.metrics.GaugeVecFunc(
		"mvpears_build_info", "Build identity of the running daemon (constant 1).",
		func() []LabeledValue {
			return []LabeledValue{{Values: []string{s.buildVersion, runtime.Version()}, Value: 1}}
		}, "version", "go_version")
	s.metrics.GaugeVecFunc(
		"mvpears_model_info", "Identity of the model currently serving (constant 1; empty fingerprint when caching is off).",
		func() []LabeledValue {
			fp := ""
			if st := s.be.Load(); st != nil {
				fp = st.modelFP
			}
			return []LabeledValue{{Values: []string{fp}, Value: 1}}
		}, "fingerprint")

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
	// ends on its own, so open sessions fail fast with a stream error
	// event instead of pinning the drain until its deadline.
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

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// DumpMetrics renders the current metric values (the daemon's final
// flush on shutdown).
func (s *Server) DumpMetrics(w io.Writer) error {
	return s.metrics.Render(w)
}

// MetricFamilies returns the metadata (name, type, help) of every metric
// family the server registers, in registration order — the source of
// truth for the generated metrics reference (see cmd/genmetrics).
func (s *Server) MetricFamilies() []FamilyInfo {
	return s.metrics.Families()
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
