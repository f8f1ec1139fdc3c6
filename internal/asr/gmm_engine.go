package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
)

// GMMEngine is the Amazon-Transcribe stand-in: a classical GMM-HMM acoustic
// model. Per-phoneme Gaussian-mixture emitters score MFCC frames and a
// phoneme-level HMM with sticky self-transitions is decoded by Viterbi.
// Being non-neural, it shares no decision-surface structure with the
// gradient-based attack targets.
type GMMEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	Model      *hmm.HMM
	Dec        *Decoder
}

var (
	_ Recognizer       = (*GMMEngine)(nil)
	_ FrameLabeler     = (*GMMEngine)(nil)
	_ CacheTranscriber = (*GMMEngine)(nil)
)

// Name implements Recognizer.
func (e *GMMEngine) Name() string { return string(e.ID) }

// FrameLabels implements FrameLabeler: the Viterbi state path, which is by
// construction one state per phoneme.
func (e *GMMEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

func (e *GMMEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := clipFeatures(clip, e.SampleRate, e.MFCC, cache, e.ID)
	if err != nil {
		return nil, err
	}
	path, _, err := e.Model.Viterbi(feats)
	if err != nil {
		return nil, fmt.Errorf("asr: %s Viterbi: %w", e.ID, err)
	}
	return path, nil
}

// Transcribe implements Recognizer.
func (e *GMMEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *GMMEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	labels, err := e.frameLabels(clip, cache)
	if err != nil {
		return "", err
	}
	return transcribeLabels(labels, clip, e.MFCC, e.Dec, cache, e.ID)
}
