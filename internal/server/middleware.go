package server

import (
	"net/http"
	"strconv"
	"time"

	"mvpears/internal/obs"
)

// statusRecorder captures the status code written by a handler so the
// instrumentation middleware can label metrics with it.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers can flush, enable full duplex, and hijack through
// the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// requestID propagates a usable client-supplied X-Request-ID or mints one.
func requestID(r *http.Request) string {
	if id := obs.SanitizeRequestID(r.Header.Get("X-Request-ID")); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// instrument wraps a handler with the serving middleware stack: panic
// recovery (a handler bug answers 500, not a dead process), request-ID
// assignment and echo, pipeline tracing, the in-flight gauge, per-route
// request counters + latency histograms, and the structured access log.
//
// The X-Request-ID header is set on the response before the handler runs,
// so every path out of the handler — including 429s, decode errors and
// recovered panics — echoes it, and error bodies can embed it.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		reqID := requestID(r)
		rec.Header().Set("X-Request-ID", reqID)
		trace := obs.NewTrace(reqID)
		r = r.WithContext(obs.WithTrace(r.Context(), trace))
		s.inFlight.Add(1)
		defer func() {
			s.inFlight.Add(-1)
			if p := recover(); p != nil {
				s.m.counter(mPanics).Inc()
				s.cfg.Logger.Printf("mvpearsd: panic in %s %s (request %s): %v", r.Method, r.URL.Path, reqID, p)
				if rec.status == 0 {
					http.Error(rec, "internal server error", http.StatusInternalServerError)
				}
			}
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			s.m.counter(mRequests, route, strconv.Itoa(rec.status)).Inc()
			s.m.histogram(mRequestSeconds, route).Observe(time.Since(start).Seconds())
			if s.reqLog != nil {
				s.reqLog.Log(obs.RequestRecord{
					RequestID: reqID,
					Route:     route,
					Method:    r.Method,
					Status:    rec.status,
					Duration:  time.Since(start),
					Outcome:   trace.Outcome(),
					Trace:     trace,
				})
			}
		}()
		h(rec, r)
	})
}
