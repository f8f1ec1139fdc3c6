package obs

import (
	"io"
	"log/slog"
	"sync/atomic"
	"time"
)

// RequestRecord is one finished HTTP request, as the serving middleware
// hands it to the logger.
type RequestRecord struct {
	RequestID string
	Route     string
	Method    string
	Status    int
	Duration  time.Duration
	// Verdict / Cached / Collapsed / ShortCircuit come from the trace
	// annotations and are zero for non-detection routes.
	Verdict   string
	Cached    bool
	Collapsed bool
	// Remote marks a verdict answered by another replica (cluster tier).
	Remote bool
	// ShortCircuit marks a verdict the cascade scheduler answered without
	// running the full engine ensemble.
	ShortCircuit bool
	// Trace supplies the per-stage timings; nil is fine.
	Trace *Trace
}

// RequestLogger writes structured JSON request logs on log/slog. Ordinary
// requests are sampled at a configurable rate (deterministic 1-in-N, so a
// rate of 0.1 logs every 10th request); slow requests — those at or above
// the Slow threshold — and server errors (status >= 500) always log, with
// full span detail for slow ones.
type RequestLogger struct {
	logger *slog.Logger
	// every is the sampling stride: log request n when n%every == 0.
	// 0 disables sampling entirely (only slow/error requests log).
	every uint64
	slow  time.Duration
	n     atomic.Uint64
}

// NewRequestLogger builds a logger writing JSON lines to w. sampleRate is
// the fraction of ordinary requests to log (clamped to [0,1]; 1 logs
// everything, 0 logs only slow requests and errors). slow is the
// always-log latency threshold (0 means 1s).
func NewRequestLogger(w io.Writer, sampleRate float64, slow time.Duration) *RequestLogger {
	if slow <= 0 {
		slow = time.Second
	}
	var every uint64
	switch {
	case sampleRate >= 1:
		every = 1
	case sampleRate <= 0:
		every = 0
	default:
		every = uint64(1/sampleRate + 0.5)
		if every == 0 {
			every = 1
		}
	}
	return &RequestLogger{
		logger: slog.New(slog.NewJSONHandler(w, nil)),
		every:  every,
		slow:   slow,
	}
}

// Log records one finished request, applying the sampling policy. Nil-safe:
// a nil logger drops everything.
func (l *RequestLogger) Log(rec RequestRecord) {
	if l == nil {
		return
	}
	slow := rec.Duration >= l.slow
	failed := rec.Status >= 500
	if !slow && !failed {
		if l.every == 0 {
			return
		}
		if l.every > 1 && l.n.Add(1)%l.every != 0 {
			return
		}
	}

	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("request_id", rec.RequestID),
		slog.String("route", rec.Route),
		slog.String("method", rec.Method),
		slog.Int("status", rec.Status),
		slog.Float64("duration_ms", durMS(rec.Duration)),
	)
	if rec.Verdict != "" {
		attrs = append(attrs,
			slog.String("verdict", rec.Verdict),
			slog.Bool("cached", rec.Cached),
			slog.Bool("collapsed", rec.Collapsed),
		)
		if rec.ShortCircuit {
			attrs = append(attrs, slog.Bool("short_circuit", true))
		}
		if rec.Remote {
			attrs = append(attrs, slog.Bool("remote", true))
		}
	}
	if totals := rec.Trace.StageTotals(); len(totals) > 0 {
		stageAttrs := make([]any, 0, len(totals))
		for _, stage := range Stages {
			if d, ok := totals[stage]; ok {
				stageAttrs = append(stageAttrs, slog.Float64(stage+"_ms", durMS(d)))
			}
		}
		if d, ok := totals[StageClusterForward]; ok {
			stageAttrs = append(stageAttrs, slog.Float64(StageClusterForward+"_ms", durMS(d)))
		}
		attrs = append(attrs, slog.Group("stages", stageAttrs...))
	}
	level := slog.LevelInfo
	msg := "request"
	if failed {
		level = slog.LevelError
	}
	if slow {
		if !failed {
			level = slog.LevelWarn
		}
		msg = "slow request"
		// Full span detail for slow requests: every span, including the
		// per-engine transcription spans, with offsets.
		spans := rec.Trace.Spans()
		spanAttrs := make([]any, 0, len(spans))
		for i, sp := range spans {
			spanAttrs = append(spanAttrs, slog.Group(itoa2(i),
				slog.String("span", sp.Name()),
				slog.Float64("start_ms", durMS(sp.Start)),
				slog.Float64("dur_ms", durMS(sp.Dur)),
			))
		}
		attrs = append(attrs, slog.Group("spans", spanAttrs...))
	}
	l.logger.LogAttrs(nil, level, msg, attrs...)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// itoa2 formats a small span index without fmt overhead.
func itoa2(i int) string {
	if i < 10 {
		return string([]byte{'0' + byte(i)})
	}
	return string([]byte{'0' + byte(i/10%10), '0' + byte(i%10)})
}
