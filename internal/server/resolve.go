package server

import (
	"context"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/obs"
)

// The resolution path (DESIGN.md §9). Every verdict the daemon serves — a
// /v1/detect upload, a batch part, a stream final, a detection forwarded
// by a peer — comes out of one chain of tiers,
//
//	cache ─► flight (join, or lead:) ─► cache again ─► remote owner ─► engine ─► store
//
// and is reported by one function: resolve walks the chain and says how the
// verdict was obtained, record turns (verdict, how) into every signal.

// detectHow classifies how a request got one verdict.
type detectHow uint8

const (
	// howFresh: this request ran the detection on this replica.
	howFresh detectHow = iota
	// howCached: answered from the local verdict cache.
	howCached
	// howShared: joined a concurrent local request's in-flight detection.
	howShared
	// howRemoteHit: the key's owning replica answered from its cache.
	howRemoteHit
	// howRemoteFresh: the detection was forwarded to the key's owning
	// replica, which ran it.
	howRemoteFresh

	// forPeer flags a verdict resolved on behalf of another replica's
	// request (the cluster owner path): its cost is observed here, where it
	// ran, but it is counted, audited and encoded there, where it is served.
	forPeer detectHow = 1 << 7
)

// ranHere reports whether this replica ran a detection for this request
// (the only case that observes stage timings).
func (h detectHow) ranHere() bool { return h&^forPeer == howFresh }

// cachedOnWire is the response's Cached flag: the verdict was served
// without running a fresh detection anywhere for this request.
func (h detectHow) cachedOnWire() bool {
	h &^= forPeer
	return h == howCached || h == howShared || h == howRemoteHit
}

// remote reports whether another replica answered.
func (h detectHow) remote() bool { return h == howRemoteHit || h == howRemoteFresh }

// engine is the chain's last tier: the fresh detection only this request
// can supply. It runs, if at all, before the resolve call that was handed
// it returns, so its input belongs to that call's caller throughout.
type engine func(ctx context.Context) (*mvpears.Detection, error)

// uploadEngine is the engine for one upload that missed the cache. Only
// the request that runs it pays for the float decode — a duplicate that
// joins a flight, or a key its owner answers, never does. The decode goes
// into a pooled sample buffer (the second-largest allocation on the miss
// path after the feature matrices), which is back in the pool before the
// engine returns: pool.Do runs the detection on this goroutine.
func (s *Server) uploadEngine(st *backendState, pcm audio.PCM16) engine {
	return func(ctx context.Context) (*mvpears.Detection, error) {
		start := time.Now()
		samples := samplePool.Get().(*[]float64)
		clip, pooled, err := s.decodeClip(st, pcm, (*samples)[:0])
		defer func() {
			if pooled {
				*samples = clip.Samples[:0] // keep the buffer if it grew
			}
			samplePool.Put(samples)
		}()
		if err != nil {
			return nil, err
		}
		obs.TraceFrom(ctx).Record(obs.StageDecode, "", start)
		var det *mvpears.Detection
		var detErr error
		if err := s.pool.Do(ctx, func(ctx context.Context) {
			det, detErr = st.backend.DetectCtx(ctx, clip)
		}); err != nil {
			return nil, err
		}
		return det, detErr
	}
}

// lookup is the cache tier ("" = caching is off, always a miss). reprobe
// marks a flight leader's second look at a key its request has already
// missed — and counted — once.
func (s *Server) lookup(key string, reprobe bool) (*verdictEntry, bool) {
	switch {
	case key == "":
		return nil, false
	case reprobe:
		return s.vc.Peek(key)
	}
	return s.vc.Get(key)
}

// store is the chain's single cache write: e under key (not ""). It
// returns e.
func (s *Server) store(key string, e *verdictEntry) *verdictEntry {
	s.vc.Put(key, e, e.size(key))
	return e
}

// resolve obtains the verdict for key through the whole chain. fwd carries
// the upload into the cluster tier; nil skips that tier, which is also what
// keeps an owner answering a forwarded detection from ever re-forwarding.
func (s *Server) resolve(ctx context.Context, key string, fwd *audio.PCM16, eng engine) (*mvpears.Detection, detectHow, error) {
	if e, ok := s.lookup(key, false); ok {
		return e.detection(), howCached, nil
	}
	e, det, how, err := s.resolveMissed(ctx, key, fwd, eng)
	if err == nil && det == nil {
		det = e.detection()
	}
	return det, how, err
}

// resolveMissed is the chain below the cache tier, for callers that have
// already called lookup: the upload paths probe on the raw PCM, before
// paying for the float decode an engine needs. Concurrent duplicates
// collapse onto one flight whose leader looks the key up once more — an
// identical flight may have completed, and stored, between this request's
// miss and its becoming leader — then tries the key's owning replica, then
// runs the engine, and stores the result.
// So a fleet-wide duplicate storm costs one detection, at the owner.
// It returns the key's entry (nil for key "") and the Detection only if
// this request ran or fetched it: a caller serving a stored or shared
// verdict rebuilds it with e.detection().
func (s *Server) resolveMissed(ctx context.Context, key string, fwd *audio.PCM16, eng engine) (*verdictEntry, *mvpears.Detection, detectHow, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	if key == "" {
		det, err := eng(ctx)
		return nil, det, howFresh, err
	}
	var det *mvpears.Detection // the leader's; written before the flight completes
	var how detectHow
	e, shared, err := s.flight.Do(ctx, key, func(fctx context.Context) (e *verdictEntry, err error) {
		// fctx keeps this request's observability values (trace, explain
		// flag), so the leader's detection records spans — and an
		// explanation — for the request that led it.
		e, det, how, err = s.lead(fctx, key, fwd, eng)
		return e, err
	})
	switch {
	case shared:
		return e, nil, howShared, err
	case err != nil:
		return nil, nil, howFresh, err
	}
	return e, det, how, nil
}

// lead is a flight leader's walk down the rest of the chain. It stores a
// peer's record as it came and encodes a fresh detection once.
func (s *Server) lead(ctx context.Context, key string, fwd *audio.PCM16, eng engine) (*verdictEntry, *mvpears.Detection, detectHow, error) {
	if e, ok := s.lookup(key, true); ok {
		return e, nil, howCached, nil
	}
	if fwd != nil {
		if rec, det, how, ok := s.clusterFetch(ctx, key, fwd); ok {
			return s.store(key, &verdictEntry{rec: rec}), det, how, nil // repeats become local hits
		}
	}
	det, err := eng(ctx)
	if err != nil {
		return nil, nil, howFresh, err
	}
	return s.store(key, newVerdictEntry(det)), det, howFresh, nil
}

// record reports one served verdict and returns its wire form. It is the
// only place a verdict is encoded into a DetectionJSON; report is the only
// place it is counted, observed, audited and annotated, so every route and
// provenance emits each signal exactly once.
func (s *Server) record(st *backendState, trace *obs.Trace, route, file string, det *mvpears.Detection, how detectHow, explain bool) DetectionJSON {
	if !s.report(st, trace, route, file, det, how) {
		return DetectionJSON{}
	}
	out := NewDetectionJSON(det, st.auxNames)
	out.Cached = how.cachedOnWire()
	out.Remote = how.remote()
	if explain {
		out.Explanation = s.explanationFor(st, det)
	}
	return out
}

// report turns (det, how) into every signal and reports whether this
// replica serves the verdict. The count and the audit line belong to the
// replica that serves the verdict (all but forPeer); stage timings,
// cascade behaviour and similarity distributions to the replica that ran
// the detection (ranHere) — re-observing them for cached, shared or remote
// verdicts would weight the distributions by request popularity instead of
// by content. It is also the only writer of the trace's Outcome. A batch
// calls it once per part on one trace, which then keeps the worst verdict
// and reports cached only if no part was fresh.
func (s *Server) report(st *backendState, trace *obs.Trace, route, file string, det *mvpears.Detection, how detectHow) bool {
	served := how&forPeer == 0
	adversarial := det.Adversarial
	var wire string
	if served {
		wire = s.countVerdict(adversarial)
	}
	trace.Note(func(o *obs.Outcome) {
		if how.ranHere() {
			casc := det.Cascade
			o.Fresh, o.Cached = true, false
			o.ShortCircuit = o.ShortCircuit || casc != nil && casc.ShortCircuit
		}
		if !served {
			return
		}
		switch how {
		case howCached, howRemoteHit:
			o.Cached = !o.Fresh
		case howShared:
			o.Collapsed = true
		}
		o.Remote = o.Remote || how.remote()
		if adversarial || o.Verdict == "" {
			o.Verdict = wire
		}
	})
	if how.ranHere() {
		s.observeDetection(st, det)
	}
	if !served {
		return false
	}
	if adversarial && s.cfg.Audit != nil {
		s.audit(st, trace, route, file, det, wire, !how.ranHere())
	}
	return true
}

// countVerdict counts one served verdict and returns its wire string. It
// also feeds the verdict base-rate drift family.
func (s *Server) countVerdict(adversarial bool) string {
	verdict := verdictOf(adversarial)
	s.m.counter(mDetections, verdict).Inc()
	s.driftMon.ObserveEvent("adversarial_rate", adversarial)
	return verdict
}

// observeDetection records one fresh detection's stage timings, cascade
// behavior and similarity-score distributions.
func (s *Server) observeDetection(st *backendState, det *mvpears.Detection) {
	s.m.histogram(mDetectStageSeconds, "recognition").Observe(det.Timing.Recognition.Seconds())
	s.m.histogram(mDetectStageSeconds, "similarity").Observe(det.Timing.Similarity.Seconds())
	s.m.histogram(mDetectStageSeconds, "classify").Observe(det.Timing.Classify.Seconds())
	casc := det.Cascade
	if casc != nil {
		s.m.histogram(mCascadeEnginesRun).Observe(float64(len(casc.EnginesRun)))
		if casc.ShortCircuit {
			s.m.counter(mCascadeShortCircuits).Inc()
		}
		if casc.SampledFull {
			s.m.counter(mCascadeSampledFull).Inc()
		}
		s.driftMon.ObserveEvent("short_circuit_rate", casc.ShortCircuit)
	}
	aux := st.auxNames
	min, observed := 1.0, 0
	for i, score := range det.Scores {
		// Imputed dimensions hold benign fill means, not measurements —
		// feeding them into the similarity distributions would fabricate
		// perfectly-benign-looking scores for engines that never ran.
		if casc != nil && i < len(casc.Imputed) && casc.Imputed[i] {
			continue
		}
		observed++
		if i < len(aux) {
			s.m.histogram(mEngineSimilarity, aux[i]).Observe(score)
			s.driftMon.ObserveScore("engine:"+aux[i], score)
		}
		if score < min {
			min = score
		}
	}
	if observed > 0 {
		s.m.histogram(mMinSimilarity).Observe(min)
		s.driftMon.ObserveScore("min_score", min)
	}
}

// minScore returns the smallest auxiliary score and its engine name.
func minScore(scores []float64, aux []string) (string, float64) {
	engine, min := "", 1.0
	for i, score := range scores {
		if score <= min {
			min = score
			if i < len(aux) {
				engine = aux[i]
			}
		}
	}
	return engine, min
}

// audit appends one adversarial verdict to the audit sink.
func (s *Server) audit(st *backendState, t *obs.Trace, route, file string, det *mvpears.Detection, verdict string, cached bool) {
	minEngine, min := minScore(det.Scores, st.auxNames)
	err := s.cfg.Audit.Write(obs.AuditEntry{
		Time:           time.Now().UTC(),
		RequestID:      t.ID(),
		Route:          route,
		File:           file,
		Verdict:        verdict,
		Scores:         det.Scores,
		MinScore:       min,
		MinEngine:      minEngine,
		Transcriptions: det.Transcriptions,
		Cached:         cached,
	})
	if err != nil {
		s.cfg.Logger.Printf("mvpearsd: audit sink: %v", err)
	}
}

// explanationFor resolves a verdict explanation for the response: the one
// computed with the detection when present, otherwise derived after the
// fact (cache hits, shared flights) by the backend.
func (s *Server) explanationFor(st *backendState, det *mvpears.Detection) *ExplanationJSON {
	exp := det.Explanation
	if exp == nil {
		exp = st.backend.Explain(det)
	}
	return NewExplanationJSON(exp)
}
