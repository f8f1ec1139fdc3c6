package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sync"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
	"mvpears/internal/vcache"
)

// writeJSON renders v with the given status. Encoding into a buffer first
// is unnecessary: the values are small and fully in-memory.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError renders a JSON error body. The request ID was placed on the
// response header by the instrumentation middleware before the handler
// ran, so every error path — 4xx, 429, 5xx — can echo it in the body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorJSON{
		Error:     fmt.Sprintf(format, args...),
		RequestID: w.Header().Get("X-Request-ID"),
	})
}

// postOnly answers anything but a POST with 405 + Allow and the usage hint.
func postOnly(hint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, hint)
			return
		}
		h(w, r)
	}
}

// explainRequested reports whether the request asked for a verdict
// explanation (?explain=1; any value but "0"/"false" counts). A request
// without a query string skips the parse, and the map it allocates.
func explainRequested(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	v := r.URL.Query().Get("explain")
	return v != "" && v != "0" && v != "false"
}

// decodeStatus maps a WAV decode failure to its HTTP status.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.Is(err, audio.ErrTooLarge) || errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// scratchPool recycles WAV payload buffers across requests: the serving
// hot path reads each upload into a pooled buffer, fingerprints it, and —
// on a cache hit — answers without ever converting to float64 samples.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

func getScratch() *[]byte { return scratchPool.Get().(*[]byte) }

func putScratch(b *[]byte) { scratchPool.Put(b) }

// readPCM structurally decodes one size-limited WAV stream into the
// pooled scratch buffer, without float conversion. The scratch pointer is
// updated to the (possibly grown) payload buffer so the pool keeps it.
func (s *Server) readPCM(r io.Reader, scratch *[]byte) (audio.PCM16, error) {
	pcm, err := audio.ReadWAVPCM(r, s.cfg.MaxUploadBytes, (*scratch)[:0])
	if err != nil {
		return audio.PCM16{}, err
	}
	*scratch = pcm.Data
	if pcm.NumSamples() == 0 {
		return audio.PCM16{}, fmt.Errorf("%w: empty data chunk", audio.ErrMalformed)
	}
	return pcm, nil
}

// samplePool recycles decoded float sample buffers across single-clip
// detections (uploadEngine). Batch parts keep plain decoding.
var samplePool = sync.Pool{
	New: func() any { b := make([]float64, 0, 8<<10); return &b },
}

// decodeClip converts structurally decoded PCM into the backend's input —
// float samples at the backend's rate, the expensive half of decoding that
// cache hits skip entirely — decoding into buf (may be nil). It reports
// whether the returned clip's samples alias buf: false when the clip was
// resampled, in which case buf is already dead by return time.
func (s *Server) decodeClip(st *backendState, pcm audio.PCM16, buf []float64) (*mvpears.Clip, bool, error) {
	clip := pcm.DecodeInto(buf)
	if rate := st.backend.SampleRate(); clip.SampleRate != rate {
		var err error
		clip, err = clip.Resample(rate)
		if err != nil {
			return nil, false, fmt.Errorf("%w: %v", audio.ErrMalformed, err)
		}
		return clip, false, nil
	}
	return clip, buf != nil, nil
}

// uploadKey derives the verdict-cache key for one upload ("" when caching
// is off). The key covers the model fingerprint plus the original
// (pre-resample) rate and canonical PCM content, which deterministically
// decide the pipeline input.
//
// Every upload, single or batch part, also passes the query-pattern watch
// here: a coarse perceptual key colliding with an earlier upload whose
// exact key differs is the mutate-one-sample probing signature. Observed
// before the cache lookup so exact retries (which hit the cache) dilute
// the suspicion window honestly.
func (s *Server) uploadKey(st *backendState, pcm audio.PCM16) string {
	if s.vc == nil {
		return ""
	}
	key := vcache.KeyPCM16(st.modelFP, pcm.SampleRate, pcm.Data)
	s.probe.Observe(drift.CoarseKey(pcm.Data), key)
	return key
}

// writeDetectError maps a detection failure to its HTTP response. A panic
// recovered inside a flight is re-raised here so the middleware's panic
// accounting and 500 behavior are identical with and without collapsing.
func (s *Server) writeDetectError(w http.ResponseWriter, err error) {
	var pe *vcache.PanicError
	if errors.As(err, &pe) {
		panic(pe.Value)
	}
	switch {
	case errors.Is(err, audio.ErrMalformed): // the clip would not resample
		writeError(w, http.StatusBadRequest, "decoding WAV: %v", err)
	case errors.Is(err, ErrQueueFull):
		s.m.counter(mRejected, rejectQueueFull).Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later")
	case errors.Is(err, ErrPoolClosed):
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "detection exceeded the %v request deadline", s.cfg.RequestTimeout)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusServiceUnavailable, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, "detection failed: %v", err)
	}
}

// handleDetect serves POST /v1/detect: the request body is one WAV file,
// the response one DetectionJSON. The serving path is content-addressed:
// the upload is fingerprinted from its raw PCM, a cache hit answers with
// zero detection work (no float decode, no worker-pool admission), and
// concurrent misses for the same fingerprint collapse onto one detection.
func (s *Server) handleDetect(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	trace := obs.TraceFrom(r.Context())
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes+1024) // payload + header slack
	scratch := getScratch()
	defer putScratch(scratch)
	pcm, err := s.readPCM(body, scratch)
	if err != nil {
		writeError(w, decodeStatus(err), "decoding WAV: %v", err)
		return
	}
	key := s.uploadKey(st, pcm)
	explain := explainRequested(r)
	if e, ok := s.lookup(key, false); ok {
		writeJSON(w, http.StatusOK, s.record(st, trace, "detect", "", e.detection(), howCached, explain))
		return
	}
	ctx := r.Context()
	if explain {
		ctx = obs.WithExplain(ctx)
	}
	e, det, how, err := s.resolveMissed(ctx, key, &pcm, s.uploadEngine(st, pcm))
	if err != nil {
		s.writeDetectError(w, err)
		return
	}
	if det == nil {
		det = e.detection()
	}
	writeJSON(w, http.StatusOK, s.record(st, trace, "detect", "", det, how, explain))
}

// handleDetectBatch serves POST /v1/detect/batch: a multipart/form-data
// body whose file parts are WAVs. Parts already in the verdict cache are
// answered from it; the remaining misses form one admission-queue job
// routed through the backend's batch API, so a saturated server rejects
// the batch's detection work atomically with 429. Batch misses populate
// the cache but do not singleflight-collapse (a batch is one job; its
// members are not independent requests worth a flight each).
func (s *Server) handleDetectBatch(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	trace := obs.TraceFrom(r.Context())
	explain := explainRequested(r)
	// Bound the whole batch body (files * per-file limit, plus framing)
	// before the multipart reader takes ownership of it.
	total := s.cfg.MaxUploadBytes*int64(s.cfg.MaxBatchFiles) + 1<<20
	r.Body = http.MaxBytesReader(w, r.Body, total)
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, http.StatusBadRequest, "expected multipart/form-data: %v", err)
		return
	}

	// part is one uploaded file on its way to a verdict.
	type part struct {
		name string
		pcm  audio.PCM16
		key  string
		det  *mvpears.Detection
		how  detectHow // howFresh unless the cache answers
	}
	var (
		parts     []part
		scratches []*[]byte
	)
	defer func() {
		for _, b := range scratches {
			putScratch(b)
		}
	}()
	for {
		mp, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "reading multipart body: %v", err)
			return
		}
		name := partName(mp)
		if len(parts) >= s.cfg.MaxBatchFiles {
			mp.Close()
			writeError(w, http.StatusRequestEntityTooLarge, "batch exceeds %d files", s.cfg.MaxBatchFiles)
			return
		}
		scratch := getScratch()
		scratches = append(scratches, scratch)
		pcm, err := s.readPCM(mp, scratch)
		mp.Close()
		if err != nil {
			writeError(w, decodeStatus(err), "decoding %q: %v", name, err)
			return
		}
		parts = append(parts, part{name: name, pcm: pcm})
	}
	if len(parts) == 0 {
		writeError(w, http.StatusBadRequest, "no WAV file parts in request")
		return
	}
	// As in handleDetect, the decode span starts once every part is in.
	decodeStart := time.Now()

	var missed []*part
	var clips []*mvpears.Clip
	for i := range parts {
		p := &parts[i]
		p.key = s.uploadKey(st, p.pcm)
		if e, ok := s.lookup(p.key, false); ok {
			p.det, p.how = e.detection(), howCached
			continue
		}
		clip, _, err := s.decodeClip(st, p.pcm, nil)
		if err != nil {
			writeError(w, decodeStatus(err), "decoding %q: %v", p.name, err)
			return
		}
		missed, clips = append(missed, p), append(clips, clip)
	}
	if len(missed) > 0 {
		trace.Record(obs.StageDecode, "", decodeStart)
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if explain {
			// The explain flag rides the context into the batch job, so
			// fresh detections carry their explanations out of the backend.
			ctx = obs.WithExplain(ctx)
		}
		var dets []*mvpears.Detection
		var detErr error
		err := s.pool.Do(ctx, func(ctx context.Context) {
			dets, detErr = st.backend.DetectBatchCtx(ctx, clips)
		})
		if err == nil {
			err = detErr
		}
		if err != nil {
			s.writeDetectError(w, err)
			return
		}
		for j, p := range missed {
			p.det = dets[j]
			if p.key != "" {
				s.store(p.key, newVerdictEntry(p.det))
			}
		}
	}

	resp := BatchResponseJSON{Results: make([]FileDetectionJSON, len(parts))}
	for i, p := range parts {
		resp.Results[i] = FileDetectionJSON{
			File:          p.name,
			DetectionJSON: s.record(st, trace, "detect_batch", p.name, p.det, p.how, explain),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// partName labels one multipart part by filename, falling back to the
// form name and then the part index-agnostic placeholder.
func partName(part *multipart.Part) string {
	if n := part.FileName(); n != "" {
		return n
	}
	if n := part.FormName(); n != "" {
		return n
	}
	return "unnamed"
}

// handleHealthz reports process liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while serving, 503 once draining
// or while a hot model reload is loading its replacement artifact (the
// window a fleet load balancer should steer around; requests that do
// arrive still serve on the old model).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	if s.reloadInProgress.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "reloading")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.m.Render(w); err != nil {
		s.cfg.Logger.Printf("mvpearsd: rendering metrics: %v", err)
	}
}
