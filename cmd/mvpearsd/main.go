// Command mvpearsd serves a trained MVP-EARS system over HTTP.
//
// Usage:
//
//	mvpearsd -model model.gob [flags]
//
// `mvpearsd -help` lists every flag with its default. A combination of
// flags that cannot work together fails at boot, before the model is
// opened, with one message naming every offending flag.
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
// build and model identity, cluster ring, drift verdicts, probe
// suspicion), /metrics, /healthz and POST /reloadz — profiling never
// shares the public serving port.
//
// Every response carries an X-Request-ID header; with -access-log each
// request is logged as one JSON line (sampled by -log-sample; requests
// slower than -slow and 5xx responses always log). -audit appends every
// adversarial verdict and every drift episode to a rotated JSONL file.
// Live per-engine score distributions are compared against the
// calibration reference shipped inside the model artifact
// (mvpears_drift_score). Service-level objectives are alerting rules over
// the exported counters (mvpears_requests_total and the
// mvpears_request_duration_seconds buckets; see README), summed across
// replicas by the scraper.
//
// -cascade-margin attaches the cascaded engine scheduler to the miss
// path: it leads with the auxiliary that minimises expected work (the
// same leader on every boot and replica of one artifact) and answers
// confidently benign clips from a partial similarity vector, without
// changing the model fingerprint. -quantized is accepted and ignored:
// int8 inference lost to the float64 blocked kernels and was removed.
//
// With -cluster-addr and -peers, replicas share the content-addressed
// verdict cache through consistent hashing on the cache key; any peer
// failure degrades to local detection. With -reload, SIGHUP (or POST
// /reloadz) swaps in a re-opened -model artifact with zero downtime.
// SIGINT/SIGTERM drain gracefully within -drain; the final metric values
// are flushed to stderr on exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
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
	"mvpears/internal/server"
	"mvpears/internal/stream"
)

// config is every mvpearsd option: the server's own Config plus the
// fields only the daemon reads. Flags register straight onto its fields.
type config struct {
	server.Config
	stream  server.StreamConfig
	cluster server.ClusterConfig
	audit   obs.AuditSinkOptions

	model, addr, adminAddr, auditPath string
	drain, streamWindow, streamHop    time.Duration
	cascadeMargin                     float64
	cascadeSample                     int
	bootstrap, quantized, reload      bool
	streamOn, accessLog               bool

	// set holds the names of the flags given on the command line.
	set map[string]bool
}

// parse builds the daemon configuration from args and validates it. The
// flags are seeded from the defaults of the packages that own them, so
// -help (written to usage) prints each real default exactly once.
func parse(args []string, usage io.Writer) (*config, error) {
	c := &config{Config: server.DefaultConfig(), set: map[string]bool{}}
	fs := flag.NewFlagSet("mvpearsd", flag.ContinueOnError)
	fs.SetOutput(usage)

	fs.StringVar(&c.model, "model", "", "path to a persisted system artifact (required)")
	fs.BoolVar(&c.bootstrap, "bootstrap", false, "train a quick-scale system and save it to -model when the artifact is missing")
	fs.BoolVar(&c.reload, "reload", true, "enable zero-downtime hot model reload (SIGHUP or POST /reloadz on the admin listener)")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&c.adminAddr, "admin-addr", "", "operator listener address (pprof, /infoz, /metrics); empty disables it")
	fs.DurationVar(&c.drain, "drain", 30*time.Second, "graceful shutdown budget")

	fs.IntVar(&c.Workers, "workers", c.Workers, "concurrent detections")
	fs.IntVar(&c.QueueDepth, "queue", c.QueueDepth, "admission queue depth (0: twice -workers)")
	fs.Int64Var(&c.MaxUploadBytes, "max-upload", c.MaxUploadBytes, "max WAV upload size in bytes")
	fs.DurationVar(&c.RequestTimeout, "timeout", c.RequestTimeout, "per-request detection deadline")
	fs.IntVar(&c.CacheEntries, "cache-entries", c.CacheEntries, "verdict cache entry bound")
	fs.Int64Var(&c.CacheBytes, "cache-bytes", c.CacheBytes, "verdict cache byte bound")

	fs.BoolVar(&c.accessLog, "access-log", true, "write structured JSON request logs to stderr")
	fs.Float64Var(c.LogSampleRate, "log-sample", *c.LogSampleRate, "fraction of ordinary requests to log (slow requests and 5xx always log)")
	fs.DurationVar(&c.SlowRequestThreshold, "slow", c.SlowRequestThreshold, "latency above which a request always logs with full span detail")
	fs.StringVar(&c.auditPath, "audit", "", "append adversarial verdicts to this JSONL file")
	fs.Int64Var(&c.audit.MaxSegmentBytes, "audit-rotate-bytes", 64<<20, "rotate the audit file into a gzipped segment at this size (0: never rotate)")
	fs.Int64Var(&c.audit.MaxTotalBytes, "audit-retain-bytes", 256<<20, "prune the oldest gzipped audit segments once they exceed this total (0: keep everything)")
	fs.Float64Var(&c.Drift.Threshold, "drift-threshold", c.Drift.Threshold, "total-variation distance from the calibration reference at which a score family counts as drifted")
	fs.IntVar(&c.Drift.WindowN, "drift-window", c.Drift.WindowN, "verdicts per rolling drift window")

	fs.Float64Var(&c.cascadeMargin, "cascade-margin", -1, "benign-confidence margin for cascaded engine scheduling (negative: off, 0: auto-calibrate, >1: cascade on but never short-circuits)")
	fs.IntVar(&c.cascadeSample, "cascade-sample", 16, "run the full ensemble on every Nth cascaded request for monitoring (0: never)")
	fs.BoolVar(&c.quantized, "quantized", false, "accepted for compatibility, no effect: int8 inference was removed, the float64 kernels are the fast path")

	fs.BoolVar(&c.streamOn, "stream", true, "serve the live streaming endpoints (/v1/detect/stream, /v1/detect/ws)")
	fs.DurationVar(&c.streamWindow, "stream-window", stream.DefaultWindow, "sliding-window length of audio for streaming verdicts")
	fs.DurationVar(&c.streamHop, "stream-hop", stream.DefaultHop, "audio between streaming windows")
	fs.IntVar(&c.stream.MaxSessions, "stream-max-sessions", stream.DefaultMaxSessions, "max concurrent streaming sessions")
	fs.DurationVar(&c.stream.IdleTimeout, "stream-idle-timeout", stream.DefaultIdleTimeout, "evict streaming sessions idle this long")

	fs.StringVar(&c.cluster.Addr, "cluster-addr", "", "peer-protocol listen address; enables the distributed verdict-cache tier")
	fs.StringVar(&c.cluster.Self, "cluster-self", "", "peer address advertised to other replicas (empty: the bound -cluster-addr)")
	fs.Func("peers", "comma-separated peer `addresses` of the other replicas (requires -cluster-addr)", func(s string) error {
		c.cluster.Peers = strings.FieldsFunc(s, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
		return nil
	})

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })
	return c, c.validate()
}

// validate reports every flag combination that cannot work as asked, in
// one joined error: a misconfigured daemon fails in milliseconds, before
// a model is opened or trained, instead of silently ignoring a flag.
func (c *config) validate() error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if c.model == "" {
		bad("-model is required (train one with `mvpears detect -quick -model PATH -in clip.wav`, or pass -bootstrap)")
	}
	// Flags that only tune a feature another flag turns on.
	for _, dep := range []struct {
		flags []string
		off   bool
		why   string
	}{
		{[]string{"peers", "cluster-self"}, c.cluster.Addr == "", "requires -cluster-addr"},
		{[]string{"audit-rotate-bytes", "audit-retain-bytes"}, c.auditPath == "", "requires -audit"},
		{[]string{"stream-window", "stream-hop", "stream-max-sessions", "stream-idle-timeout"}, !c.streamOn, "has no effect with -stream=false"},
		{[]string{"log-sample", "slow"}, !c.accessLog, "has no effect with -access-log=false"},
		{[]string{"cascade-sample"}, c.cascadeMargin < 0, "has no effect while -cascade-margin is negative (cascade off)"},
	} {
		for _, name := range dep.flags {
			if dep.off && c.set[name] {
				bad("-%s %s", name, dep.why)
			}
		}
	}
	if c.streamHop > c.streamWindow {
		bad("-stream-hop %v exceeds -stream-window %v: audio between windows would never be scored", c.streamHop, c.streamWindow)
	}
	// Every value must lie in its flag's domain; none silently becomes a
	// default.
	logRate, drift := *c.LogSampleRate, c.Drift.Threshold
	for _, f := range []struct {
		name string
		v    any
		ok   bool
		want string
	}{
		{"stream-window", c.streamWindow, c.streamWindow > 0, "positive"},
		{"stream-hop", c.streamHop, c.streamHop > 0, "positive"},
		{"stream-idle-timeout", c.stream.IdleTimeout, c.stream.IdleTimeout > 0, "positive"},
		{"log-sample", logRate, 0 <= logRate && logRate <= 1, "in [0,1]"},
		{"drift-threshold", drift, 0 < drift && drift <= 1, "in (0,1]"},
		{"workers", c.Workers, c.Workers >= 0, "non-negative"},
		{"queue", c.QueueDepth, c.QueueDepth >= 0, "non-negative"},
		{"cache-entries", c.CacheEntries, c.CacheEntries >= 0, "non-negative"},
		{"cache-bytes", c.CacheBytes, c.CacheBytes >= 0, "non-negative"},
		{"max-upload", c.MaxUploadBytes, c.MaxUploadBytes >= 0, "non-negative"},
		{"timeout", c.RequestTimeout, c.RequestTimeout >= 0, "non-negative"},
		{"drain", c.drain, c.drain >= 0, "non-negative"},
		{"slow", c.SlowRequestThreshold, c.SlowRequestThreshold >= 0, "non-negative"},
		{"drift-window", c.Drift.WindowN, c.Drift.WindowN >= 0, "non-negative"},
		{"stream-max-sessions", c.stream.MaxSessions, c.stream.MaxSessions >= 0, "non-negative"},
		{"cascade-sample", c.cascadeSample, c.cascadeSample >= 0, "non-negative"},
	} {
		if !f.ok {
			bad("-%s %v must be %s", f.name, f.v, f.want)
		}
	}
	return errors.Join(errs...)
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mvpearsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	c, err := parse(args, os.Stderr)
	if err != nil {
		return err
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)

	sys, err := mvpears.Open(c.model)
	switch {
	case err == nil:
		logger.Printf("loaded model artifact %s", c.model)
	case c.bootstrap && errors.Is(err, fs.ErrNotExist):
		logger.Printf("no artifact at %s; bootstrapping a quick-scale system", c.model)
		sys, err = mvpears.Build(mvpears.WithQuickScale())
		if err != nil {
			return fmt.Errorf("bootstrapping: %w", err)
		}
		if err := sys.SaveFile(c.model); err != nil {
			return fmt.Errorf("saving bootstrap artifact: %w", err)
		}
		logger.Printf("saved bootstrap artifact to %s", c.model)
	default:
		return fmt.Errorf("opening model %s: %w (-bootstrap trains a quick-scale one only when the file is missing)", c.model, err)
	}

	if c.quantized {
		logger.Printf("-quantized is accepted for compatibility and changes nothing: the float64 blocked kernels are the fast path (int8 inference was removed)")
	}

	// accelerate applies the boot-time accelerators to a freshly loaded
	// system. Hot reload re-applies them to the replacement model, so a
	// reloaded daemon keeps the exact acceleration it booted with.
	accelerate := func(sys *mvpears.System) error {
		if c.cascadeMargin >= 0 {
			if err := sys.EnableCascade(c.cascadeMargin, c.cascadeSample); err != nil {
				return fmt.Errorf("enabling cascade: %w", err)
			}
			logger.Print(sys.Cascade())
		}
		return nil
	}
	if err := accelerate(sys); err != nil {
		return err
	}

	cfg := c.Config
	cfg.Backend = sys
	cfg.Logger = logger
	if c.accessLog {
		cfg.AccessLog = os.Stderr
	}
	if c.streamOn {
		rate := float64(sys.SampleRate())
		c.stream.Window = int(c.streamWindow.Seconds() * rate)
		c.stream.Hop = int(c.streamHop.Seconds() * rate)
		cfg.Stream = &c.stream
	}
	if c.auditPath != "" {
		sink, err := obs.OpenAuditSinkWith(c.auditPath, c.audit)
		if err != nil {
			return err
		}
		defer sink.Close()
		cfg.Audit = sink
		logger.Printf("auditing adversarial verdicts to %s (rotate %d B, retain %d B)", c.auditPath, c.audit.MaxSegmentBytes, c.audit.MaxTotalBytes)
	}
	if c.reload {
		cfg.Reload = func() (server.Backend, error) {
			nsys, err := mvpears.Open(c.model)
			if err != nil {
				return nil, fmt.Errorf("reopening model %s: %w", c.model, err)
			}
			if err := accelerate(nsys); err != nil {
				return nil, err
			}
			return nsys, nil
		}
	}
	if c.cluster.Addr != "" {
		cfg.Cluster = &c.cluster
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
				logger.Printf("SIGHUP: hot-reloading model from %s", c.model)
				if err := s.Reload(); err != nil {
					logger.Printf("hot reload failed: %v", err)
				}
			}
		}()
	}
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", c.addr, err)
	}

	// The admin listener is separate by design: operators can firewall it
	// independently and a pprof profile can never contend for (or leak
	// through) the public serving socket.
	var adminSrv *http.Server
	if c.adminAddr != "" {
		adminLn, err := net.Listen("tcp", c.adminAddr)
		if err != nil {
			return fmt.Errorf("listening on admin %s: %w", c.adminAddr, err)
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
	runErr := s.RunUntilSignal(ln, c.drain, os.Interrupt, syscall.SIGTERM)
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
