package asr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
	"mvpears/internal/speech"
)

func roster(set *EngineSet) []Recognizer {
	return []Recognizer{set.DS0, set.DS1, set.GCS, set.AT}
}

func sameMatrix(t testing.TB, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for f := range want {
		for j := range want[f] {
			if got[f][j] != want[f][j] {
				t.Fatalf("%s: frame %d coeff %d = %v, want %v (not bit-identical)", what, f, j, got[f][j], want[f][j])
			}
		}
	}
}

// soloReference transcribes and extracts with every engine on its own: no
// cache, no shared front end.
func soloReference(t testing.TB, engines []Recognizer, clip *audio.Clip) (texts []string, feats [][][]float64) {
	t.Helper()
	for _, e := range engines {
		text, err := e.Transcribe(clip)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := frontEndOf(e)
		f, err := m.Extract(clip.Samples)
		if err != nil {
			t.Fatal(err)
		}
		texts, feats = append(texts, text), append(feats, f)
	}
	return texts, feats
}

// TestRosterFrontEndMatchesFourExtracts: the trained roster's four
// extractors fall into the spectrum groups the design documents, one
// dsp.FrontEnd pass over them equals four independent Extract calls, and
// a full TranscribeInto over one cache equals four lone Transcribes.
func TestRosterFrontEndMatchesFourExtracts(t *testing.T) {
	set := testEngines(t)
	engines := roster(set)
	ms := []*dsp.MFCC{set.DS0.MFCC, set.DS1.MFCC, set.GCS.MFCC, set.AT.MFCC}
	if ms[0].SpectrumFingerprint() != ms[3].SpectrumFingerprint() {
		t.Fatalf("DS0 %q and AT %q should share a spectrum group", ms[0].SpectrumFingerprint(), ms[3].SpectrumFingerprint())
	}
	keys := map[string]bool{}
	fps := map[string]bool{}
	for _, m := range ms {
		keys[m.SpectrumFingerprint()] = true
		fps[m.Fingerprint()] = true
	}
	if len(keys) != 3 || len(fps) != 4 {
		t.Fatalf("roster has %d spectrum groups and %d fingerprints, want 3 and 4", len(keys), len(fps))
	}
	for _, u := range exactCorpus(t, set.SampleRate, 4) {
		wantText, wantFeats := soloReference(t, engines, u.Clip)
		got, err := dsp.NewFrontEnd(ms).Extract(u.Clip.Samples)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ms {
			sameMatrix(t, "FrontEnd member "+engines[i].Name(), got[i], wantFeats[i])
		}
		cache := NewFeatureCache(u.Clip.Samples)
		out := make([]string, len(engines))
		if err := TranscribeInto(context.Background(), engines, u.Clip, cache, false, out); err != nil {
			t.Fatal(err)
		}
		batches := map[*featureBatch]bool{}
		for _, b := range cache.entries {
			batches[b] = true
		}
		if cache.Len() != 4 || len(batches) != 3 {
			t.Fatalf("full call made %d entries in %d batches, want 4 in 3", cache.Len(), len(batches))
		}
		for i, e := range engines {
			if out[i] != wantText[i] {
				t.Fatalf("%s: shared %q, alone %q", e.Name(), out[i], wantText[i])
			}
			f, err := cache.Extract(ms[i])
			if err != nil {
				t.Fatal(err)
			}
			sameMatrix(t, "cached "+e.Name(), f, wantFeats[i])
		}
	}
}

// TestPhaseSplitMatchesFullCall: whichever single engine a cascade runs
// first, phase one extracts for that engine alone, and phase two on the
// same cache — including a spectrum-group partner arriving late — yields
// the features and transcriptions of the full call.
func TestPhaseSplitMatchesFullCall(t *testing.T) {
	set := testEngines(t)
	engines := roster(set)
	clip := exactCorpus(t, set.SampleRate, 1)[0].Clip
	wantText, wantFeats := soloReference(t, engines, clip)
	for first := range engines {
		cache := GetFeatureCache(clip.Samples)
		out := make([]string, len(engines))
		if err := TranscribeInto(context.Background(), engines[first:first+1], clip, cache, false, out[first:]); err != nil {
			t.Fatal(err)
		}
		if cache.Len() != 1 {
			t.Fatalf("phase one of %s alone left %d entries: it extracted for an engine that did not run", engines[first].Name(), cache.Len())
		}
		rest := append(append([]Recognizer(nil), engines[:first]...), engines[first+1:]...)
		restOut := make([]string, len(rest))
		if err := TranscribeInto(context.Background(), rest, clip, cache, false, restOut); err != nil {
			t.Fatal(err)
		}
		copy(out, restOut[:first])
		copy(out[first+1:], restOut[first:])
		for i, e := range engines {
			if out[i] != wantText[i] {
				t.Fatalf("first=%s: %s transcribed %q, full call %q", engines[first].Name(), e.Name(), out[i], wantText[i])
			}
			m, _ := frontEndOf(e)
			f, err := cache.Extract(m)
			if err != nil {
				t.Fatal(err)
			}
			sameMatrix(t, fmt.Sprintf("first=%s: %s", engines[first].Name(), e.Name()), f, wantFeats[i])
		}
		PutFeatureCache(cache)
	}
}

// TestFeatureCacheConcurrentGroups runs the four roster engines against
// one cache from four goroutines — DS0 and AT, the two members of one
// spectrum group, released together — and expects the lone-engine
// results. Run it under -race -count=10.
func TestFeatureCacheConcurrentGroups(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	set := testEngines(t)
	engines := roster(set)
	for round, u := range exactCorpus(t, set.SampleRate, 6) {
		wantText, wantFeats := soloReference(t, engines, u.Clip)
		cache := GetFeatureCache(u.Clip.Samples)
		if round%2 == 0 {
			cache.expect(engines)
		} // odd rounds: every engine arrives unannounced, a group of one
		start := make(chan struct{})
		texts := make([]string, len(engines))
		feats := make([][][]float64, len(engines))
		errs := make([]error, len(engines))
		var wg sync.WaitGroup
		for i, e := range engines {
			wg.Add(1)
			go func(i int, e Recognizer) {
				defer wg.Done()
				<-start
				m, _ := frontEndOf(e)
				if feats[i], errs[i] = cache.Extract(m); errs[i] == nil {
					texts[i], errs[i] = e.(CacheTranscriber).TranscribeWithCache(u.Clip, cache)
				}
			}(i, e)
		}
		close(start)
		wg.Wait()
		for i, e := range engines {
			if errs[i] != nil {
				t.Fatalf("round %d %s: %v", round, e.Name(), errs[i])
			}
			if texts[i] != wantText[i] {
				t.Fatalf("round %d %s: concurrent %q, alone %q", round, e.Name(), texts[i], wantText[i])
			}
			sameMatrix(t, fmt.Sprintf("round %d %s", round, e.Name()), feats[i], wantFeats[i])
		}
		PutFeatureCache(cache)
	}
}

// FuzzEnsembleStreamChunking is the asr-level metamorphic property of the
// streaming contract: whatever chunk schedule the fuzzer picks, every
// roster engine's streamed final transcription == TranscribeWithCache on
// the whole clip, and every window a session would evaluate on the way —
// all of them, or only the first few when the top bit of which is set —
// reads as the frozen eager stream's (streamAgainstEager).
func FuzzEnsembleStreamChunking(f *testing.F) {
	f.Add(uint8(0), []byte{1, 1, 255, 0, 40})
	f.Add(uint8(1), []byte{255, 255, 255})
	f.Add(uint8(2), []byte{})
	f.Add(uint8(3), []byte{200, 3, 100, 7, 150})
	f.Add(uint8(0x80|2<<2|1), []byte{180, 9, 255, 130})
	set := testEngines(f)
	engines := roster(set)
	utts := exactCorpus(f, set.SampleRate, 4)
	want := make([][]string, len(utts))
	for i, u := range utts {
		want[i] = batchTexts(f, engines, u.Clip)
	}
	f.Fuzz(func(t *testing.T, which uint8, chunks []byte) {
		sched := make([]int, len(chunks))
		for i, c := range chunks {
			// Sizes 0..127 as they are (1-sample chunks included), larger
			// bytes scaled so a single chunk can exceed the clip.
			sched[i] = int(c)
			if c >= 128 {
				sched[i] = (int(c) - 127) * 150
			}
		}
		stopAt := math.MaxInt
		if which&0x80 != 0 {
			stopAt = int(which>>2) & 7
		}
		u := int(which&3) % len(utts)
		streamAgainstEager(t, set, engines, utts[u].Clip, sched, stopAt, want[u])
	})
}

// oldLogSumExp is hmm.logSumExp before its exact prune, and oldMixture an
// emitter that folds a mixture's components with it (component scores and
// log weights as the model computes them: one Gaussian at a time,
// math.Log of the weight).
func oldLogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

type oldMixture struct {
	m               *hmm.GMM
	calls, prunable *int
}

func (o oldMixture) LogProb(x []float64) float64 {
	out := math.Inf(-1)
	for i, c := range o.m.Components {
		if o.m.Weights[i] <= 0 {
			continue
		}
		p := math.Log(o.m.Weights[i]) + c.LogProb(x)
		if !math.IsInf(out, -1) && !math.IsInf(p, -1) {
			*o.calls++
			if hi, lo := max(out, p), min(out, p); lo-hi <= -38 && math.Abs(hi) >= 1 {
				*o.prunable++
			}
		}
		out = oldLogSumExp(out, p)
	}
	return out
}

// TestLogSumExpPruneInSitu scores a synthesized corpus through AT as it
// is and through a copy whose mixtures fold with the unpruned logSumExp:
// every frame × state log-likelihood must be == (mismatches are counted,
// the count must be 0), the prune must actually fire on this data, and
// GMMEngine.Transcribe and gmmStream (finals and every window) must give
// the old model's text.
func TestLogSumExpPruneInSitu(t *testing.T) {
	set := testEngines(t)
	at := set.AT
	var calls, prunable int
	old := make([]hmm.Emitter, len(at.Model.Emitters))
	for i, e := range at.Model.Emitters {
		old[i] = e
		if m, ok := e.(*hmm.GMM); ok {
			old[i] = oldMixture{m, &calls, &prunable}
		}
	}
	oldModel, err := hmm.NewHMM(at.Model.LogInit, at.Model.LogTrans, old)
	if err != nil {
		t.Fatal(err)
	}
	oldAT := &GMMEngine{ID: at.ID, SampleRate: at.SampleRate, MFCC: at.MFCC, Model: oldModel, Dec: at.Dec}
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(set.SampleRate), 24, 4242)
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for _, u := range utts {
		feats, err := at.MFCC.Extract(u.Clip.Samples)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range feats {
			for s, e := range at.Model.Emitters {
				if e.LogProb(x) != old[s].LogProb(x) {
					mismatches++
				}
			}
		}
		got, err := at.Transcribe(u.Clip)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oldAT.Transcribe(u.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Transcribe %q, unpruned model %q", got, want)
		}
	}
	if mismatches != 0 {
		t.Fatalf("%d frame×state log-likelihoods differ from the unpruned fold", mismatches)
	}
	if calls == 0 || prunable*5 < calls {
		t.Fatalf("prune condition met on %d of %d in-situ calls: the corpus does not exercise it", prunable, calls)
	}
	t.Logf("prune condition met on %d of %d in-situ logSumExp calls, 0 mismatches", prunable, calls)
	// gmmStream: windows and final against the unpruned model's stream.
	clip := utts[0].Clip
	streams := make([]*EnsembleStream, 2)
	for i, e := range []Recognizer{at, oldAT} {
		if streams[i], err = NewEnsembleStream([]Recognizer{e}, set.SampleRate); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for off := 0; off < len(clip.Samples); {
		n := min(1+rng.Intn(2000), len(clip.Samples)-off)
		var texts [2]string
		for i, es := range streams {
			if err := es.Push(clip.Samples[off : off+n]); err != nil {
				t.Fatal(err)
			}
			if texts[i], err = es.WindowText(0, max(0, off+n-8000), off+n); err != nil {
				t.Fatal(err)
			}
		}
		if texts[0] != texts[1] {
			t.Fatalf("window ending at %d: %q, unpruned model %q", off+n, texts[0], texts[1])
		}
		off += n
	}
	var finals [2]string
	for i, es := range streams {
		if err := es.Finalize(); err != nil {
			t.Fatal(err)
		}
		if finals[i], err = es.FinalText(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	if finals[0] != finals[1] {
		t.Fatalf("stream final %q, unpruned model %q", finals[0], finals[1])
	}
}
