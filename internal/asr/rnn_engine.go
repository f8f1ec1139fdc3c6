package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/nn"
)

// RNNEngine is the Google-Cloud-Speech stand-in: an Elman recurrent
// acoustic model over a deliberately different feature front end (more
// filters/cepstra, Hann window, different frame geometry) so that its
// decision surface is uncorrelated with the MLP engines'.
type RNNEngine struct {
	ID         EngineID
	SampleRate int
	MFCC       *dsp.MFCC
	UseDeltas  bool
	Net        *nn.RNN
	Dec        *Decoder
}

var (
	_ Recognizer       = (*RNNEngine)(nil)
	_ FrameLabeler     = (*RNNEngine)(nil)
	_ CacheTranscriber = (*RNNEngine)(nil)
)

// Name implements Recognizer.
func (e *RNNEngine) Name() string { return string(e.ID) }

// Features extracts the engine's input representation (MFCC + optional
// deltas).
func (e *RNNEngine) Features(clip *audio.Clip) ([][]float64, error) {
	return e.features(clip, nil)
}

func (e *RNNEngine) features(clip *audio.Clip, cache *FeatureCache) ([][]float64, error) {
	feats, err := clipFeatures(clip, e.SampleRate, e.MFCC, cache, e.ID)
	if err != nil {
		return nil, err
	}
	if !e.UseDeltas {
		return feats, nil
	}
	// MFCC‖delta rows share one backing array, like the MFCC matrix.
	width := 2 * e.MFCC.Config().NumCoeffs
	out := make([][]float64, len(feats))
	rows := make([]float64, len(feats)*width)
	for t := range feats {
		out[t] = rows[t*width : (t+1)*width : (t+1)*width]
		deltaRow(feats, t, len(feats), out[t])
	}
	return out, nil
}

// deltaRow writes frame t's network input into dst: the MFCC row
// followed by its width-2 regression delta, neighbours clamped to the n
// frames that exist (dsp.DeltaInto).
func deltaRow(feats [][]float64, t, n int, dst []float64) {
	dim := len(feats[t])
	copy(dst, feats[t])
	dsp.DeltaInto(feats, t, n, 2, dst[dim:2*dim])
}

// FrameLabels implements FrameLabeler.
func (e *RNNEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	return e.frameLabels(clip, nil)
}

func (e *RNNEngine) frameLabels(clip *audio.Clip, cache *FeatureCache) ([]int, error) {
	feats, err := e.features(clip, cache)
	if err != nil {
		return nil, err
	}
	// Inference keeps no BPTT cache: two ping-pong hidden buffers and
	// one logits buffer serve the whole clip (ForwardSeq is the same
	// StepInto recurrence plus the per-frame copies training needs).
	h := make([]float64, e.Net.Hidden)
	nh := make([]float64, e.Net.Hidden)
	y := make([]float64, e.Net.Out)
	labels := make([]int, len(feats))
	for t, x := range feats {
		if err := e.Net.StepInto(x, h, nh, y); err != nil {
			return nil, fmt.Errorf("asr: %s forward: frame %d: %w", e.ID, t, err)
		}
		h, nh = nh, h
		labels[t] = nn.Argmax(y)
	}
	return labels, nil
}

// Transcribe implements Recognizer.
func (e *RNNEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *RNNEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	labels, err := e.frameLabels(clip, cache)
	if err != nil {
		return "", err
	}
	return transcribeLabels(labels, clip, e.MFCC, e.Dec, cache, e.ID)
}
