package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
	"mvpears/internal/stream"
	"mvpears/internal/vcache"
)

// Streaming endpoints: live audio in, verdicts out while the speaker is
// still talking.
//
//   - POST /v1/detect/stream — chunked WAV body in, NDJSON events out
//     (window / final / error), full-duplex on HTTP/1.1.
//   - GET  /v1/detect/ws     — WebSocket: binary frames carry raw
//     little-endian 16-bit PCM at the backend's rate, a text frame "end"
//     requests the final verdict; events arrive as text frames.
//
// Streaming sessions bypass the worker pool: their concurrency is
// bounded by the session table (MaxSessions -> 429), their lifetime by
// the idle timeout and max stream duration. Audio must arrive at the
// backend's native rate — a chunk boundary is not a resampling boundary,
// so mismatched rates are rejected up front instead of resampled.

// StreamConfig configures the streaming endpoints: the options handed to
// Backend.NewStreamManager, whose Hooks the server replaces with its
// metric hooks. See stream.Config for each field's default.
type StreamConfig = mvpears.StreamOptions

// Stream event names on the wire.
const (
	StreamEventWindow = "window"
	StreamEventFinal  = "final"
	StreamEventError  = "error"
)

// StreamWindowJSON is one provisional sliding-window verdict.
type StreamWindowJSON struct {
	Index   int       `json:"index"`
	StartMS float64   `json:"start_ms"`
	EndMS   float64   `json:"end_ms"`
	Verdict string    `json:"verdict"`
	Scores  []float64 `json:"scores"`
	// Transcriptions maps engine name to its windowed transcription.
	Transcriptions map[string]string `json:"transcriptions"`
	// EarlyExit marks the window that tripped the early-exit floor.
	EarlyExit bool    `json:"early_exit,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// StreamEarlyExitJSON describes an early-exit flag.
type StreamEarlyExitJSON struct {
	Window      int     `json:"window"`
	Engine      string  `json:"engine"`
	Score       float64 `json:"score"`
	Floor       float64 `json:"floor"`
	AudioTimeMS float64 `json:"audio_time_ms"`
}

// StreamEventJSON is one event on a streaming response. Exactly one of
// Window / Detection / Error is set, matching Event.
type StreamEventJSON struct {
	Event  string            `json:"event"`
	Window *StreamWindowJSON `json:"window,omitempty"`
	// Final-event fields: the whole-clip verdict (same schema as
	// /v1/detect), the window count and audio duration, and the
	// early-exit record when the session flagged before end-of-stream.
	Detection  *DetectionJSON       `json:"detection,omitempty"`
	Windows    int                  `json:"windows,omitempty"`
	DurationMS float64              `json:"duration_ms,omitempty"`
	EarlyExit  *StreamEarlyExitJSON `json:"early_exit,omitempty"`
	// Stop asks the client to stop sending audio (early exit fired).
	Stop      bool   `json:"stop,omitempty"`
	Error     string `json:"error,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// streamWindowJSON renders one session window with engine names.
func (s *Server) streamWindowJSON(st *backendState, w stream.Window, rate int) *StreamWindowJSON {
	tr := make(map[string]string, len(w.Aux)+1)
	tr[st.backend.TargetName()] = w.Target
	for i, text := range w.Aux {
		if i < len(st.auxNames) {
			tr[st.auxNames[i]] = text
		}
	}
	return &StreamWindowJSON{
		Index:          w.Index,
		StartMS:        ms(stream.SampleDuration(w.Start, rate)),
		EndMS:          ms(stream.SampleDuration(w.End, rate)),
		Verdict:        verdictOf(w.Adversarial),
		Scores:         w.Scores,
		Transcriptions: tr,
		EarlyExit:      w.EarlyExit,
		ElapsedMS:      ms(w.Elapsed),
	}
}

func streamEarlyExitJSON(e *stream.EarlyExit) *StreamEarlyExitJSON {
	if e == nil {
		return nil
	}
	return &StreamEarlyExitJSON{
		Window:      e.Window,
		Engine:      e.Engine,
		Score:       e.Score,
		Floor:       e.Floor,
		AudioTimeMS: ms(e.AudioTime),
	}
}

// streamRun carries one streaming session through a handler: the session,
// the event writer (NDJSON or WebSocket text frames), the PCM decoder
// both paths push their bytes through, and the per-request observability
// state.
type streamRun struct {
	sess *stream.Session
	// st pins the backendState the session opened under: a hot reload
	// mid-stream must not switch models between windows and final.
	st      *backendState
	trace   *obs.Trace
	explain bool
	route   string
	// pcm decodes pushed bytes, which may split a sample, into samples
	// (reused across pushes); decodeDur accumulates the decode cost
	// alone, recorded as the trace's decode span at finalize.
	pcm       audio.PCM16Decoder
	samples   []float64
	decodeDur time.Duration
	write     func(ev StreamEventJSON) error
	// failed, when set, runs after fail has written its error event.
	failed func()
}

// push decodes one chunk of raw little-endian PCM16, hands the samples to
// the session and writes the window events they completed; the window
// that tripped the early-exit floor asks the client to stop sending. It
// reports whether the stream goes on: false once the client is gone or
// the session failed, which fail has reported.
func (s *Server) push(ctx context.Context, run *streamRun, data []byte) bool {
	start := time.Now()
	run.samples = run.pcm.Append(run.samples[:0], data)
	run.decodeDur += time.Since(start)
	windows, err := run.sess.Push(ctx, run.samples)
	rate := run.st.backend.SampleRate()
	for _, w := range windows {
		ev := StreamEventJSON{Event: StreamEventWindow, Window: s.streamWindowJSON(run.st, w, rate), Stop: w.EarlyExit}
		if run.write(ev) != nil {
			return false // client gone
		}
	}
	if err != nil {
		run.fail("stream session: %v", err)
		return false
	}
	return true
}

// finishStream finalizes the session and writes the final event: the
// whole-clip verdict, resolved by content like any upload (a streamed
// re-send of known audio is a cache hit) with an engine that hands over
// the verdict the session has already built, and recorded like any other.
func (s *Server) finishStream(ctx context.Context, run *streamRun) error {
	// The accumulated incremental decode cost becomes the decode span,
	// anchored to end now.
	run.trace.Record(obs.StageDecode, "", time.Now().Add(-run.decodeDur))
	fin, err := run.sess.Finish(ctx)
	if err != nil {
		return err
	}
	st := run.st
	key := ""
	if s.vc != nil {
		key = vcache.KeySamples(st.modelFP, st.backend.SampleRate(), fin.Samples)
	}
	det, how, err := s.resolve(ctx, key, nil, func(context.Context) (*mvpears.Detection, error) {
		return st.backend.DetectionFromStream(fin), nil
	})
	if err != nil {
		return err
	}
	out := s.record(st, run.trace, run.route, "", det, how, run.explain)
	return run.write(StreamEventJSON{
		Event:      StreamEventFinal,
		Detection:  &out,
		Windows:    fin.Windows,
		DurationMS: ms(fin.Duration),
		EarlyExit:  streamEarlyExitJSON(fin.EarlyExit),
	})
}

// openStream opens a streaming session for the request and wraps it in a
// streamRun (the caller sets write), or answers the request — 429 +
// Retry-After at the session limit — and returns nil.
func (s *Server) openStream(w http.ResponseWriter, r *http.Request, st *backendState, route string) *streamRun {
	sess, err := st.stream.Open()
	switch {
	case err == nil:
		return &streamRun{sess: sess, st: st, trace: obs.TraceFrom(r.Context()), explain: explainRequested(r), route: route}
	case errors.Is(err, stream.ErrTooManySessions):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "too many open streaming sessions")
	default:
		writeError(w, http.StatusServiceUnavailable, "opening stream session: %v", err)
	}
	return nil
}

// fail reports a mid-stream failure as an error event: the 200 (or 101)
// is already on the wire.
func (run *streamRun) fail(format string, args ...any) {
	_ = run.write(StreamEventJSON{
		Event:     StreamEventError,
		Error:     fmt.Sprintf(format, args...),
		RequestID: run.trace.ID(),
	})
	if run.failed != nil {
		run.failed()
	}
}

// streamReadBytes sizes the per-read buffer on the NDJSON path: 1/8 s of
// 16 kHz PCM16, small enough to keep window latency low.
const streamReadBytes = 4096

// handleDetectStream serves POST /v1/detect/stream: a chunked WAV body
// is ingested incrementally and NDJSON events flow back full-duplex —
// provisional window verdicts as the audio arrives, then one final
// whole-clip verdict at EOF.
func (s *Server) handleDetectStream(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	if st.stream == nil {
		writeError(w, http.StatusNotFound, "streaming is not enabled")
		return
	}
	rc := http.NewResponseController(w)
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes+1024)
	wr, err := audio.NewWAVStreamReader(body, s.cfg.MaxUploadBytes)
	if err != nil {
		writeError(w, decodeStatus(err), "decoding WAV header: %v", err)
		return
	}
	if rate := st.backend.SampleRate(); wr.SampleRate() != rate {
		writeError(w, http.StatusBadRequest,
			"streaming requires audio at the native %d Hz rate, got %d Hz", rate, wr.SampleRate())
		return
	}
	run := s.openStream(w, r, st, "detect_stream")
	if run == nil {
		return
	}
	defer run.sess.Close()
	if n, ok := wr.DeclaredSamples(); ok {
		run.sess.Reserve(n)
	}

	// Full duplex: we interleave body reads with response writes; without
	// this net/http drains the request body at the first write. Enabled
	// only once every early-reject path is behind us — a plain error
	// response with an unconsumed full-duplex body panics the connection's
	// teardown ("invalid concurrent Body.Read call").
	if err := rc.EnableFullDuplex(); err != nil {
		writeError(w, http.StatusInternalServerError, "full-duplex streaming unsupported: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	run.write = func(ev StreamEventJSON) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		return rc.Flush()
	}

	ctx := r.Context()
	buf := make([]byte, streamReadBytes)
	for {
		n, err := wr.Read(buf)
		if n > 0 && !s.push(ctx, run, buf[:n]) {
			return
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			run.fail("decoding streamed WAV: %v", err)
			return
		}
	}
	if err := s.finishStream(ctx, run); err != nil {
		run.fail("finalizing stream: %v", err)
	}
}

// handleDetectWS serves GET /v1/detect/ws. Protocol: the client sends
// binary frames of raw little-endian 16-bit PCM at the backend's sample
// rate and a text frame "end" to finalize; the server answers with text
// frames carrying StreamEventJSON (window events as audio arrives, one
// final event after "end", error events on failure).
func (s *Server) handleDetectWS(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	if st.stream == nil {
		writeError(w, http.StatusNotFound, "streaming is not enabled")
		return
	}
	run := s.openStream(w, r, st, "detect_ws")
	if run == nil {
		return
	}
	defer run.sess.Close()
	conn, err := stream.UpgradeWS(w, r)
	if err != nil {
		return // UpgradeWS already answered
	}
	defer conn.Close()
	run.write = func(ev StreamEventJSON) error {
		payload, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		return conn.WriteMessage(stream.OpText, payload)
	}
	run.failed = func() { _ = conn.WriteClose(1011) } // internal error

	ctx := r.Context()
	for {
		op, payload, err := conn.ReadMessage()
		if err != nil {
			// Close frame or transport error: the client abandoned the
			// session; no final verdict.
			return
		}
		switch op {
		case stream.OpBinary:
			if !s.push(ctx, run, payload) {
				return
			}
		case stream.OpText:
			if string(payload) != "end" {
				run.fail("unexpected text frame %q (only \"end\" is defined)", payload)
				return
			}
			if err := s.finishStream(ctx, run); err != nil {
				run.fail("finalizing stream: %v", err)
				return
			}
			_ = conn.WriteClose(1000)
			return
		}
	}
}
