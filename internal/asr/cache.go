package asr

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/obs"
)

// FeatureCache memoizes MFCC extraction for ONE clip across engines.
// MVP-EARS runs N+1 ASR engines on every input. Engines whose front ends
// are configured identically (DS0 and the CTC engine DS2) share one
// matrix, keyed by the MFCCConfig fingerprint, which covers every field of
// the defaulted configuration. Engines that agree only upstream of the mel
// bank (DS0 and AT) form a spectrum group (dsp.FrontEnd): TranscribeInto
// announces the extractors its call will ask for (expect), and the first
// engine of a group to arrive runs one shared pass for the announced
// members. A cascade phase therefore never extracts for an engine of a
// later phase, and an unannounced Extract is a group of one.
//
// The cache is safe for concurrent use: when several engines of one group
// ask at once, one extracts and the rest wait. Cached feature matrices are
// shared read-only — consumers must not modify the returned rows (every
// engine in this repository copies or folds them into fresh buffers).
type FeatureCache struct {
	samples []float64
	mu      sync.Mutex
	entries map[string]*featureBatch // MFCC fingerprint -> the batch that computes it
	// tail is the post-acoustic work the clip's engines share (energy
	// gate sums, lexicon matches); mu is held across each engine's use.
	tail tailWork
}

// featureBatch is the extractors of one spectrum group announced
// together, and their features once the first of them has been asked for.
type featureBatch struct {
	once  sync.Once
	ms    []*dsp.MFCC
	feats [][][]float64 // indexed like ms
	err   error
}

// NewFeatureCache builds a cache for one clip's samples.
func NewFeatureCache(samples []float64) *FeatureCache {
	return &FeatureCache{samples: samples, entries: make(map[string]*featureBatch)}
}

// Reset rebinds the cache to a new clip's samples, dropping every entry
// while keeping the map's allocated buckets for reuse.
func (c *FeatureCache) Reset(samples []float64) {
	c.mu.Lock()
	c.samples = samples
	clear(c.entries)
	c.tail.reset()
	c.mu.Unlock()
}

// featureCachePool recycles FeatureCache values across requests: a
// serving process allocates one per detection, and the map's buckets are
// the only state worth keeping (entries are per-clip and cleared).
var featureCachePool = sync.Pool{
	New: func() any { return &FeatureCache{entries: make(map[string]*featureBatch)} },
}

// GetFeatureCache returns a pooled cache bound to samples. Release it
// with PutFeatureCache once no engine is using it.
func GetFeatureCache(samples []float64) *FeatureCache {
	c := featureCachePool.Get().(*FeatureCache)
	c.Reset(samples)
	return c
}

// PutFeatureCache returns a cache to the pool. The caller must guarantee
// no goroutine still reads from it; cached feature matrices handed out by
// Extract remain valid (they are never reused), only the cache itself is.
func PutFeatureCache(c *FeatureCache) {
	if c == nil {
		return
	}
	c.Reset(nil)
	featureCachePool.Put(c)
}

// expect announces the engines a caller is about to run against the cache
// (recognizers with no known front end are skipped). Their extractors not
// yet in the cache are batched by spectrum group, so each group's first
// Extract computes all of them in one pass.
func (c *FeatureCache) expect(engines []Recognizer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var opened []*featureBatch
	for _, e := range engines {
		m, _ := frontEndOf(e)
		if m == nil || c.entries[m.Fingerprint()] != nil {
			continue
		}
		i := slices.IndexFunc(opened, func(b *featureBatch) bool {
			return b.ms[0].SpectrumFingerprint() == m.SpectrumFingerprint()
		})
		if i < 0 {
			i = len(opened)
			opened = append(opened, &featureBatch{})
		}
		opened[i].ms = append(opened[i].ms, m)
		c.entries[m.Fingerprint()] = opened[i]
	}
}

// Extract returns the MFCC features of the cache's clip under m's
// configuration, computing them at most once per distinct fingerprint.
func (c *FeatureCache) Extract(m *dsp.MFCC) ([][]float64, error) {
	c.mu.Lock()
	b := c.entries[m.Fingerprint()]
	if b == nil { // unannounced: a group of one
		b = &featureBatch{ms: []*dsp.MFCC{m}}
		c.entries[m.Fingerprint()] = b
	}
	c.mu.Unlock()
	b.once.Do(func() {
		b.feats, b.err = dsp.NewFrontEnd(b.ms).Extract(c.samples)
	})
	if b.err != nil {
		return nil, b.err
	}
	i := slices.IndexFunc(b.ms, func(o *dsp.MFCC) bool { return o.Fingerprint() == m.Fingerprint() })
	return b.feats[i], nil
}

// frontEndOf returns the extractor a built-in engine draws its features
// from and the sample rate it runs at, or nil for a recognizer the cache
// and the streaming front end know nothing about.
func frontEndOf(r Recognizer) (*dsp.MFCC, int) {
	switch e := r.(type) {
	case *MLPEngine:
		return e.MFCC, e.SampleRate
	case *RNNEngine:
		return e.MFCC, e.SampleRate
	case *GMMEngine:
		return e.MFCC, e.SampleRate
	case *WeakEngine:
		return e.MFCC, e.SampleRate
	case *CTCEngine:
		return e.MFCC, e.SampleRate
	}
	return nil, 0
}

// clipFeatures validates the clip for an engine running at rate and
// returns its MFCCs under m, through the shared cache when there is one.
func clipFeatures(clip *audio.Clip, rate int, m *dsp.MFCC, cache *FeatureCache, id EngineID) ([][]float64, error) {
	if err := validateClip(clip, rate); err != nil {
		return nil, err
	}
	var (
		feats [][]float64
		err   error
	)
	if cache != nil {
		feats, err = cache.Extract(m)
	} else {
		feats, err = m.Extract(clip.Samples)
	}
	if err != nil {
		return nil, fmt.Errorf("asr: %s feature extraction: %w", id, err)
	}
	return feats, nil
}

// clipSilence is the whole-clip energy gate's verdict on each of the n
// frames an engine with front end m labels: which of them transcription
// forces to silence, whatever the acoustic model would say. With a cache
// the gate's sums are shared with the clip's other engines, and the
// result is the caller's own, to read outside the cache's lock.
func clipSilence(clip *audio.Clip, n int, m *dsp.MFCC, cache *FeatureCache) []bool {
	mc := m.Config()
	if cache == nil {
		return new(tailWork).silent(0, n, clip.Samples, 0, len(clip.Samples), mc.FrameLen, mc.Hop, energyGateRatio)
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return slices.Clone(cache.tail.silent(0, n, clip.Samples, 0, len(clip.Samples), mc.FrameLen, mc.Hop, energyGateRatio))
}

// decodeLabels is the end of every frame-labelling engine's Transcribe:
// the word decode of its gated labels. With a cache, the decoder's
// lexicon matches are shared with the clip's other engines.
func decodeLabels(labels []int, dec *Decoder, cache *FeatureCache, id EngineID) (string, error) {
	w := new(tailWork)
	if cache != nil {
		cache.mu.Lock()
		defer cache.mu.Unlock()
		w = &cache.tail
	}
	text, err := dec.decode(labels, w)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", id, err)
	}
	return text, nil
}

// transcribeLabels gates and decodes the labels of an engine whose state
// crosses frames, so that it has to label every one of them (a recurrent
// network, a Viterbi path); labels is overwritten.
func transcribeLabels(labels []int, clip *audio.Clip, m *dsp.MFCC, dec *Decoder, cache *FeatureCache, id EngineID) (string, error) {
	silence(labels, clipSilence(clip, len(labels), m, cache))
	return decodeLabels(labels, dec, cache, id)
}

// Len reports how many distinct front-end configurations have been
// announced or extracted (for tests and instrumentation).
func (c *FeatureCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// CacheTranscriber is implemented by engines whose Transcribe can reuse a
// shared per-clip feature cache. All built-in engines implement it.
type CacheTranscriber interface {
	Recognizer
	// TranscribeWithCache is Transcribe, sourcing MFCC extraction from
	// cache when non-nil. The cache must have been built from clip's
	// samples.
	TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error)
}

// TranscribeAll transcribes one clip with every engine, sharing a single
// per-clip feature cache so identical front ends extract MFCCs once. When
// parallel is set the engines run concurrently (the paper's serving
// architecture); otherwise in order. The result is indexed like engines.
// On error, the first failing engine's error (by index) is returned,
// wrapped with its name. The context is checked before each engine runs,
// so a cancelled or expired request stops dispatching work at engine
// granularity (each engine is a few milliseconds of pure CPU) and returns
// the context's error.
func TranscribeAll(ctx context.Context, engines []Recognizer, clip *audio.Clip, parallel bool) ([]string, error) {
	if clip == nil {
		return make([]string, len(engines)), fmt.Errorf("asr: nil clip")
	}
	// Pooled: TranscribeInto joins every engine before returning, so no
	// goroutine can still hold the cache when it is released.
	cache := GetFeatureCache(clip.Samples)
	defer PutFeatureCache(cache)
	out := make([]string, len(engines))
	err := TranscribeInto(ctx, engines, clip, cache, parallel, out)
	return out, err
}

// TranscribeInto transcribes the clip with the given engines, sourcing
// features from an externally owned cache and writing results into out
// (len(out) >= len(engines)). It is the staged form of TranscribeAll: the
// cascade scheduler calls it once per phase with the SAME cache, so a
// front end extracted in phase one is never redone when the remaining
// engines run in phase two — and, since only this call's engines are
// announced to the cache, phase one never extracts for an engine that may
// not run.
func TranscribeInto(ctx context.Context, engines []Recognizer, clip *audio.Clip, cache *FeatureCache, parallel bool, out []string) error {
	if clip == nil {
		return fmt.Errorf("asr: nil clip")
	}
	if len(out) < len(engines) {
		return fmt.Errorf("asr: output slice has %d slots for %d engines", len(out), len(engines))
	}
	if cache != nil {
		cache.expect(engines)
	}
	// A traced request gets one span per engine (concurrent engines record
	// into the trace under its own lock); untraced requests skip the clock
	// reads entirely.
	trace := obs.TraceFrom(ctx)
	runOne := func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var start time.Time
		if trace != nil {
			start = time.Now()
		}
		var (
			text string
			err  error
		)
		if ct, ok := engines[i].(CacheTranscriber); ok {
			text, err = ct.TranscribeWithCache(clip, cache)
		} else {
			text, err = engines[i].Transcribe(clip)
		}
		if trace != nil {
			trace.Record(obs.StageTranscribe, engines[i].Name(), start)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", engines[i].Name(), err)
		}
		out[i] = text
		return nil
	}
	// With a single P the goroutine fan-out is pure scheduler overhead:
	// the engines would still run one at a time, just interleaved.
	if runtime.GOMAXPROCS(0) == 1 {
		parallel = false
	}
	if !parallel {
		for i := range engines {
			if err := runOne(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(engines))
	var wg sync.WaitGroup
	wg.Add(len(engines))
	for i := range engines {
		go func(i int) {
			defer wg.Done()
			errs[i] = runOne(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
