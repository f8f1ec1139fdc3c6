package asr

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mvpears/internal/dsp"
	"mvpears/internal/speech"
)

// TestFeatureCacheSharesIdenticalConfigs asserts the cache dedups
// extraction across extractors with identical fingerprints and keeps
// distinct configurations apart.
func TestFeatureCacheSharesIdenticalConfigs(t *testing.T) {
	synth := speech.NewSynthesizer(8000)
	rng := rand.New(rand.NewSource(3))
	clip, _, err := synth.SynthesizeSentence("open the door", speech.DefaultSpeaker(), rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dsp.DefaultMFCCConfig(8000)
	a, err := dsp.NewMFCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dsp.NewMFCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.NumFilters = 23
	other.LowHz = 120
	c, err := dsp.NewMFCC(other)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewFeatureCache(clip.Samples)
	fa, err := cache.Extract(a)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := cache.Extract(b)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 1 {
		t.Fatalf("identical configs created %d cache entries", cache.Len())
	}
	if len(fa) == 0 || &fa[0][0] != &fb[0][0] {
		t.Fatal("identical configs did not share the cached features")
	}
	fc, err := cache.Extract(c)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("distinct configs share a cache entry (%d entries)", cache.Len())
	}
	if len(fc) > 0 && len(fa) > 0 && &fc[0][0] == &fa[0][0] {
		t.Fatal("distinct configs alias the same features")
	}
	// The cached result must be bit-identical to a direct extraction.
	direct, err := a.Extract(clip.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(fa) {
		t.Fatalf("frame count %d != %d", len(fa), len(direct))
	}
	for f := range direct {
		for k := range direct[f] {
			if direct[f][k] != fa[f][k] {
				t.Fatalf("frame %d coeff %d: cached %v != direct %v", f, k, fa[f][k], direct[f][k])
			}
		}
	}
	// Concurrent extraction against one cache must stay consistent.
	var wg sync.WaitGroup
	results := make([][][]float64, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := a
			if i%2 == 1 {
				m = b
			}
			feats, err := cache.Extract(m)
			if err == nil {
				results[i] = feats
			}
		}(i)
	}
	wg.Wait()
	for i, feats := range results {
		if feats == nil || &feats[0][0] != &fa[0][0] {
			t.Fatalf("concurrent extraction %d diverged", i)
		}
	}
}

// TestFeatureCachePoolReuse asserts a pooled cache forgets its previous
// clip entirely: entries from the old samples never leak into the next
// request's extraction.
func TestFeatureCachePoolReuse(t *testing.T) {
	synth := speech.NewSynthesizer(8000)
	rng := rand.New(rand.NewSource(4))
	clipA, _, err := synth.SynthesizeSentence("open the door", speech.DefaultSpeaker(), rng)
	if err != nil {
		t.Fatal(err)
	}
	clipB, _, err := synth.SynthesizeSentence("close the window", speech.DefaultSpeaker(), rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dsp.NewMFCC(dsp.DefaultMFCCConfig(8000))
	if err != nil {
		t.Fatal(err)
	}
	cache := GetFeatureCache(clipA.Samples)
	fa, err := cache.Extract(m)
	if err != nil {
		t.Fatal(err)
	}
	PutFeatureCache(cache)
	cache2 := GetFeatureCache(clipB.Samples)
	if cache2.Len() != 0 {
		t.Fatalf("pooled cache kept %d stale entries", cache2.Len())
	}
	fb, err := cache2.Extract(m)
	if err != nil {
		t.Fatal(err)
	}
	PutFeatureCache(cache2)
	// Same config, different clip: the features must be clipB's, not a
	// stale hit from clipA.
	want, err := m.Extract(clipB.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) != len(want) {
		t.Fatalf("pooled cache served stale features: %d frames, want %d", len(fb), len(want))
	}
	for i := range fb {
		for j := range fb[i] {
			if fb[i][j] != want[i][j] {
				t.Fatalf("frame %d coeff %d: %v != %v", i, j, fb[i][j], want[i][j])
			}
		}
	}
	_ = fa
}

// TestTranscribeAllWithCacheMatchesDirect asserts the shared helper (the
// cache-on path used by the detector) produces exactly the per-engine
// Transcribe outputs (the cache-off path), in both sequential and
// parallel modes.
func TestTranscribeAllWithCacheMatchesDirect(t *testing.T) {
	// Force real goroutine fan-out even on a single-core machine, where
	// the helper would otherwise take its sequential fallback; the -race
	// run must exercise the concurrent path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	set := testEngines(t)
	synth := speech.NewSynthesizer(set.SampleRate)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD}
	for i, text := range []string{"open the door", "play the music now"} {
		rng := rand.New(rand.NewSource(int64(40 + i)))
		clip, _, err := synth.SynthesizeSentence(text, speech.DefaultSpeaker(), rng)
		if err != nil {
			t.Fatal(err)
		}
		direct := make([]string, len(engines))
		for j, eng := range engines {
			text, err := eng.Transcribe(clip)
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			direct[j] = text
		}
		for _, parallel := range []bool{false, true} {
			got, err := TranscribeAll(context.Background(), engines, clip, parallel)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(direct) {
				t.Fatalf("parallel=%v: cached %q != direct %q", parallel, got, direct)
			}
		}
	}
}
