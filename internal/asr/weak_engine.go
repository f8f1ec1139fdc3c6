package asr

import (
	"fmt"
	"math"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
)

// WeakEngine is the deliberately inaccurate auxiliary reproducing the
// paper's Kaldi observation (§V-E): "if the auxiliary ASR is not accurate
// in recognizing benign audios, the AE detection accuracy is bad". It is a
// nearest-centroid frame classifier over coarsely quantized MFCCs, trained
// on a tiny sample, with no sequence smoothing.
type WeakEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	Centroids  [][]float64 // one per phoneme id; nil if the phoneme was unseen
	Quant      float64     // feature quantization step (information loss)
	Dec        *Decoder
}

var (
	_ Recognizer       = (*WeakEngine)(nil)
	_ FrameLabeler     = (*WeakEngine)(nil)
	_ CacheTranscriber = (*WeakEngine)(nil)
)

// Name implements Recognizer.
func (e *WeakEngine) Name() string { return string(e.ID) }

// FrameLabels implements FrameLabeler: every frame labelled (no energy
// gate).
func (e *WeakEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	feats, err := clipFeatures(clip, e.SampleRate, e.MFCC, nil, e.ID)
	if err != nil {
		return nil, err
	}
	return labelFrames(feats, nil, e.frameLabeler())
}

// frameLabeler returns the engine's per-frame classifier — the phoneme
// whose centroid is nearest the quantized frame — with its own buffer.
func (e *WeakEngine) frameLabeler() func(feats [][]float64, t int) (int, error) {
	q := make([]float64, e.MFCC.Config().NumCoeffs)
	return func(feats [][]float64, t int) (int, error) {
		f := feats[t]
		q = q[:len(f)]
		for i, v := range f {
			if e.Quant > 0 {
				q[i] = math.Round(v/e.Quant) * e.Quant
			} else {
				q[i] = v
			}
		}
		best, bestDist := -1, math.Inf(1)
		for ph, c := range e.Centroids {
			if c == nil {
				continue
			}
			var dist float64
			for i := range q {
				d := q[i] - c[i]
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = ph, dist
			}
		}
		if best < 0 {
			return 0, fmt.Errorf("asr: %s has no trained centroids", e.ID)
		}
		return best, nil
	}
}

// Transcribe implements Recognizer.
func (e *WeakEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *WeakEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	feats, err := clipFeatures(clip, e.SampleRate, e.MFCC, cache, e.ID)
	if err != nil {
		return "", err
	}
	labels, err := labelFrames(feats, clipSilence(clip, len(feats), e.MFCC, cache), e.frameLabeler())
	if err != nil {
		return "", err
	}
	return decodeLabels(labels, e.Dec, cache, e.ID)
}
