// Command mvpearsd serves a trained MVP-EARS system over HTTP.
//
// Usage:
//
//	mvpearsd -model model.gob [-addr 127.0.0.1:8080] [-workers N] [-queue N]
//	         [-max-upload 16777216] [-timeout 30s] [-drain 30s] [-bootstrap]
//	         [-cache-entries 4096] [-cache-bytes 67108864] [-cache-off]
//	         [-admin-addr 127.0.0.1:8081] [-log-sample 1.0] [-slow 1s]
//	         [-access-log] [-audit audit.jsonl]
//	         [-audit-rotate-bytes 67108864] [-audit-retain-bytes 268435456]
//	         [-drift-threshold 0.25] [-drift-window 512]
//	         [-slo-latency-target 0.99] [-slo-availability-target 0.999]
//	         [-slo-quality-target 0.99]
//	         [-cascade-margin -1] [-cascade-sample 16] [-quantized]
//	         [-stream] [-stream-window 1s] [-stream-hop 250ms]
//	         [-stream-max-sessions 64] [-stream-idle-timeout 30s]
//	         [-cluster-addr 127.0.0.1:9090] [-peers host:9090,host2:9090]
//	         [-hedge-after 0] [-reload]
//
// The daemon boots from a persisted model artifact (written by
// `mvpears detect -model` or by -bootstrap) — it never retrains at
// startup. It exposes:
//
//	POST /v1/detect        one WAV body -> verdict JSON (?explain=1 adds
//	                       per-engine phonetic evidence)
//	POST /v1/detect/batch  multipart WAVs -> per-file verdicts
//	POST /v1/detect/stream chunked WAV in -> NDJSON sliding-window
//	                       verdicts out, with early-exit flagging
//	GET  /v1/detect/ws     WebSocket: PCM16 frames in, verdict events out
//	GET  /healthz          liveness
//	GET  /readyz           readiness (503 while draining)
//	GET  /metrics          Prometheus text format
//
// With -admin-addr a second, operator-only listener serves /debug/pprof/,
// /infoz (build + model identity), /statusz (a plain-text operator page:
// build and model identity, SLO burn rates, drift verdicts, probe
// suspicion), /metrics and /healthz — profiling never shares the public
// serving port.
//
// Every response carries an X-Request-ID header (propagated from the
// request when present); with -access-log each request is logged as one
// JSON line (sampled by -log-sample; requests slower than -slow always
// log, with full span detail). -audit appends every adversarial verdict
// and every drift episode to a JSONL file, rotated into gzipped segments
// at -audit-rotate-bytes and pruned oldest-first past -audit-retain-bytes
// (drops are counted in mvpears_audit_dropped_total, never blocking
// serving).
//
// The daemon continuously compares its live per-engine score
// distributions against the calibration-time reference shipped inside
// the model artifact (total-variation distance over fixed histogram
// sketches, exported as mvpears_drift_score); a family past
// -drift-threshold emits a structured drift audit event and marks
// verdicts as degraded for the quality SLO. Three built-in SLOs
// (detect latency, availability, verdict quality) are tracked with
// fast/slow multi-window burn rates (mvpears_slo_burn_rate) and an
// alerting bit that only trips when both windows burn hot.
//
// The cache-miss path can be accelerated without retraining or changing
// the persisted model: -cascade-margin attaches the cascaded engine
// scheduler, which leads with the auxiliary that minimises expected work
// over the benign training features (a deterministic choice: no clock,
// the same leader on every boot and replica of one artifact) and answers
// confidently benign clips from a partial similarity vector (0
// auto-calibrates the no-flip margins from the training features;
// negative keeps the cascade off). -cascade-sample N still runs the full
// ensemble on every Nth cascaded request for distribution monitoring.
// The cascade does not change the model fingerprint, so verdict-cache
// keys are shared with uncascaded daemons of the same model. -quantized
// is accepted and ignored: int8 inference lost to the float64 blocked
// kernels and was removed.
//
// With -cluster-addr and -peers, N replicas share the content-addressed
// verdict cache: consistent hashing on the cache key decides which
// replica owns each clip, local misses forward to the owner (remote hits
// cost a fraction of a detection, and fleet-wide duplicate storms
// collapse to one detection at the owner), and slow self-owned misses
// hedge a duplicate dispatch to an idle peer. Any peer failure degrades
// to local detection — a request is never failed because a peer is down.
//
// With -reload (default on), SIGHUP — or POST /reloadz on the admin
// listener — re-opens the -model artifact and swaps it in with zero
// downtime: in-flight requests finish on the old model, /readyz answers
// 503 while the replacement loads, and the fingerprint change makes
// stale cache entries unreachable fleet-wide with no epoch protocol.
//
// SIGINT/SIGTERM drain gracefully within -drain; the final metric values
// are flushed to stderr on exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
	"unicode"

	"mvpears"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
	"mvpears/internal/server"
)

// splitPeers parses the comma-separated -peers list, dropping empties.
func splitPeers(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvpearsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mvpearsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	adminAddr := fs.String("admin-addr", "", "operator listener address (pprof, /infoz, /metrics); empty disables it")
	model := fs.String("model", "", "path to a persisted system artifact (required)")
	workers := fs.Int("workers", 0, "concurrent detections (default: GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (default: 2*workers)")
	maxUpload := fs.Int64("max-upload", 16<<20, "max WAV upload size in bytes")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request detection deadline")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	bootstrap := fs.Bool("bootstrap", false, "train a quick-scale system and save it to -model when the artifact is missing")
	cacheEntries := fs.Int("cache-entries", 0, "verdict cache entry bound (default: 4096)")
	cacheBytes := fs.Int64("cache-bytes", 0, "verdict cache byte bound (default: 64 MiB)")
	cacheOff := fs.Bool("cache-off", false, "disable the verdict cache and singleflight collapsing")
	accessLog := fs.Bool("access-log", true, "write structured JSON request logs to stderr")
	logSample := fs.Float64("log-sample", 1.0, "fraction of ordinary requests to log (slow requests and 5xx always log)")
	slow := fs.Duration("slow", time.Second, "latency above which a request always logs with full span detail")
	auditPath := fs.String("audit", "", "append adversarial verdicts to this JSONL file")
	auditRotate := fs.Int64("audit-rotate-bytes", 64<<20, "rotate the audit file into a gzipped segment at this size (0: never rotate)")
	auditRetain := fs.Int64("audit-retain-bytes", 256<<20, "prune the oldest gzipped audit segments once they exceed this total (0: keep everything)")
	driftThreshold := fs.Float64("drift-threshold", 0, "total-variation distance from the calibration reference at which a score family counts as drifted (default: 0.25)")
	driftWindow := fs.Int("drift-window", 0, "verdicts per rolling drift window (default: 512)")
	sloLatency := fs.Float64("slo-latency-target", 0, "fraction of detect requests that must answer within 250ms (default: 0.99)")
	sloAvailability := fs.Float64("slo-availability-target", 0, "fraction of HTTP requests that must not 5xx (default: 0.999)")
	sloQuality := fs.Float64("slo-quality-target", 0, "fraction of verdicts that must be served drift-free (default: 0.99)")
	cascadeMargin := fs.Float64("cascade-margin", -1, "benign-confidence margin for cascaded engine scheduling (negative: off, 0: auto-calibrate, >1: cascade on but never short-circuits)")
	cascadeSample := fs.Int("cascade-sample", 16, "run the full ensemble on every Nth cascaded request for monitoring (0: never)")
	quantized := fs.Bool("quantized", false, "accepted for compatibility, no effect: int8 inference was removed, the float64 kernels are the fast path")
	streamOn := fs.Bool("stream", true, "serve the live streaming endpoints (/v1/detect/stream, /v1/detect/ws)")
	streamWindow := fs.Duration("stream-window", 0, "sliding-window length for streaming verdicts (default: 1s of audio)")
	streamHop := fs.Duration("stream-hop", 0, "hop between streaming windows (default: 250ms of audio)")
	streamMaxSessions := fs.Int("stream-max-sessions", 0, "max concurrent streaming sessions (default: 64)")
	streamIdle := fs.Duration("stream-idle-timeout", 0, "evict streaming sessions idle this long (default: 30s)")
	clusterAddr := fs.String("cluster-addr", "", "peer-protocol listen address; enables the distributed verdict-cache tier")
	clusterSelf := fs.String("cluster-self", "", "peer address advertised to other replicas (default: the bound -cluster-addr)")
	peers := fs.String("peers", "", "comma-separated peer addresses of the other replicas (requires -cluster-addr)")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed hedge delay before duplicating a slow detection to an idle peer (default: derived from the measured detection cost)")
	reloadOn := fs.Bool("reload", true, "enable zero-downtime hot model reload (SIGHUP or POST /reloadz on the admin listener)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *model == "" {
		return fmt.Errorf("-model is required (train one with `mvpears detect -quick -model PATH -in clip.wav`, or pass -bootstrap)")
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	sys, err := mvpears.Open(*model)
	switch {
	case err == nil:
		logger.Printf("loaded model artifact %s", *model)
	case *bootstrap:
		logger.Printf("no usable artifact at %s (%v); bootstrapping a quick-scale system", *model, err)
		sys, err = mvpears.Build(mvpears.WithQuickScale())
		if err != nil {
			return fmt.Errorf("bootstrapping: %w", err)
		}
		if err := sys.SaveFile(*model); err != nil {
			return fmt.Errorf("saving bootstrap artifact: %w", err)
		}
		logger.Printf("saved bootstrap artifact to %s", *model)
	default:
		return fmt.Errorf("opening model %s: %w (pass -bootstrap to train a quick-scale one)", *model, err)
	}

	if *quantized {
		logger.Printf("-quantized is accepted for compatibility and changes nothing: the float64 blocked kernels are the fast path (int8 inference was removed)")
	}

	// accelerate applies the boot-time accelerators to a freshly loaded
	// system. Hot reload re-applies them to the replacement model, so a
	// reloaded daemon keeps the exact acceleration it booted with.
	accelerate := func(sys *mvpears.System) error {
		if *cascadeMargin >= 0 {
			if err := sys.EnableCascade(*cascadeMargin, *cascadeSample); err != nil {
				return fmt.Errorf("enabling cascade: %w", err)
			}
			logger.Print(sys.Cascade())
		}
		return nil
	}
	if err := accelerate(sys); err != nil {
		return err
	}

	cfg := server.Config{
		Backend:              sys,
		Workers:              *workers,
		QueueDepth:           *queue,
		MaxUploadBytes:       *maxUpload,
		RequestTimeout:       *timeout,
		Logger:               logger,
		CacheEntries:         *cacheEntries,
		CacheBytes:           *cacheBytes,
		CacheOff:             *cacheOff,
		LogSampleRate:        *logSample,
		SlowRequestThreshold: *slow,
		Drift: drift.Config{
			WindowN:   *driftWindow,
			Threshold: *driftThreshold,
		},
		SLO: server.SLOTargets{
			Latency:      *sloLatency,
			Availability: *sloAvailability,
			Quality:      *sloQuality,
		},
	}
	if *accessLog {
		cfg.AccessLog = os.Stderr
	}
	if *streamOn {
		rate := sys.SampleRate()
		toSamples := func(d time.Duration) int {
			return int(float64(rate) * d.Seconds())
		}
		cfg.Stream = &server.StreamConfig{
			Window:      toSamples(*streamWindow),
			Hop:         toSamples(*streamHop),
			MaxSessions: *streamMaxSessions,
			IdleTimeout: *streamIdle,
		}
	}
	if *auditPath != "" {
		sink, err := obs.OpenAuditSinkWith(*auditPath, obs.AuditSinkOptions{
			MaxSegmentBytes: *auditRotate,
			MaxTotalBytes:   *auditRetain,
		})
		if err != nil {
			return err
		}
		defer sink.Close()
		cfg.Audit = sink
		logger.Printf("auditing adversarial verdicts to %s (rotate %d B, retain %d B)", *auditPath, *auditRotate, *auditRetain)
	}
	if *reloadOn {
		cfg.Reload = func() (server.Backend, error) {
			nsys, err := mvpears.Open(*model)
			if err != nil {
				return nil, fmt.Errorf("reopening model %s: %w", *model, err)
			}
			if err := accelerate(nsys); err != nil {
				return nil, err
			}
			return nsys, nil
		}
	}
	if *clusterAddr != "" {
		cfg.Cluster = &server.ClusterConfig{
			Addr:       *clusterAddr,
			Self:       *clusterSelf,
			Peers:      splitPeers(*peers),
			HedgeAfter: *hedgeAfter,
		}
	} else if *peers != "" {
		return fmt.Errorf("-peers requires -cluster-addr")
	}
	s, err := server.New(cfg)
	if err != nil {
		return err
	}
	// SIGHUP triggers a hot model reload: the artifact at -model is
	// re-opened and swapped in with zero downtime. The serving signals
	// (SIGINT/SIGTERM) stay with RunUntilSignal.
	if cfg.Reload != nil {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for range hup {
				logger.Printf("SIGHUP: hot-reloading model from %s", *model)
				if err := s.Reload(); err != nil {
					logger.Printf("hot reload failed: %v", err)
				}
			}
		}()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}

	// The admin listener is separate by design: operators can firewall it
	// independently and a pprof profile can never contend for (or leak
	// through) the public serving socket.
	var adminSrv *http.Server
	if *adminAddr != "" {
		adminLn, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			return fmt.Errorf("listening on admin %s: %w", *adminAddr, err)
		}
		adminSrv = &http.Server{Handler: s.AdminHandler(), ReadHeaderTimeout: 10 * time.Second, ErrorLog: logger}
		go func() {
			if err := adminSrv.Serve(adminLn); err != nil && err != http.ErrServerClosed {
				logger.Printf("admin listener: %v", err)
			}
		}()
		logger.Printf("admin endpoints on http://%s (/debug/pprof/, /infoz, /statusz, /metrics)", adminLn.Addr())
	}

	logger.Printf("serving on http://%s (auxiliaries %v, %d Hz)", ln.Addr(), sys.AuxiliaryNames(), sys.SampleRate())
	runErr := s.RunUntilSignal(ln, *drain, os.Interrupt, syscall.SIGTERM)
	if adminSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := adminSrv.Shutdown(ctx); err != nil {
			logger.Printf("admin shutdown: %v", err)
		}
		cancel()
	}

	// Final flush: the last metric values, for postmortems and log scrapes.
	fmt.Fprintln(os.Stderr, "--- final metrics ---")
	if err := s.DumpMetrics(os.Stderr); err != nil {
		logger.Printf("dumping metrics: %v", err)
	}
	return runErr
}
