package asr

import (
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
)

// MLPEngine is a DeepSpeech-style acoustic model: context-stacked MFCC
// frames classified into phonemes by a feedforward network, decoded to
// words by the shared lexicon+LM decoder. It implements GradientModel, so
// it can serve as a white-box attack target: gradients flow from the
// framewise loss through the network and the entire MFCC front end back to
// the waveform samples.
type MLPEngine struct {
	ID         EngineID
	SampleRate int
	Context    int // stack +/-Context neighbouring frames
	MFCC       *dsp.MFCC
	Net        *nn.MLP
	Dec        *Decoder
}

var (
	_ Recognizer       = (*MLPEngine)(nil)
	_ GradientModel    = (*MLPEngine)(nil)
	_ CacheTranscriber = (*MLPEngine)(nil)
)

// Name implements Recognizer.
func (e *MLPEngine) Name() string { return string(e.ID) }

// NumFrames implements GradientModel.
func (e *MLPEngine) NumFrames(numSamples int) int { return e.MFCC.NumFrames(numSamples) }

// rawFeatures extracts the unstacked MFCC matrix, going through the
// shared per-clip cache when one is supplied.
func (e *MLPEngine) rawFeatures(clip *audio.Clip, cache *FeatureCache) ([][]float64, error) {
	return clipFeatures(clip, e.SampleRate, e.MFCC, cache, e.ID)
}

// features extracts context-stacked MFCCs; when keepState is true the MFCC
// state needed for the backward pass is returned too. The gradient path
// never goes through the feature cache.
func (e *MLPEngine) features(clip *audio.Clip, keepState bool) ([][]float64, *dsp.MFCCState, error) {
	if err := validateClip(clip, e.SampleRate); err != nil {
		return nil, nil, err
	}
	var (
		feats [][]float64
		st    *dsp.MFCCState
		err   error
	)
	if keepState {
		feats, st, err = e.MFCC.ExtractWithState(clip.Samples)
	} else {
		feats, err = e.MFCC.Extract(clip.Samples)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("asr: %s feature extraction: %w", e.ID, err)
	}
	return dsp.StackContext(feats, e.Context), st, nil
}

// FrameLogits returns per-frame phoneme logits.
func (e *MLPEngine) FrameLogits(clip *audio.Clip) ([][]float64, error) {
	feats, _, err := e.features(clip, false)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(feats))
	for t, f := range feats {
		logits, err := e.Net.Forward(f)
		if err != nil {
			return nil, fmt.Errorf("asr: %s frame %d: %w", e.ID, t, err)
		}
		out[t] = logits
	}
	return out, nil
}

// frameLabeler returns the engine's per-frame classifier over a feature
// matrix — the argmax phoneme of frame t, neighbours clamped to the frames
// feats holds when called — with its own stacking and network buffers: the
// steady state does no per-frame allocations.
func (e *MLPEngine) frameLabeler() func(feats [][]float64, t int) (int, error) {
	stacked := make([]float64, (2*e.Context+1)*e.MFCC.Config().NumCoeffs)
	scratch := e.Net.NewScratch()
	return func(feats [][]float64, t int) (int, error) {
		dsp.StackFrame(feats, t, e.Context, stacked)
		logits, err := e.Net.ForwardScratch(stacked, scratch)
		if err != nil {
			return 0, fmt.Errorf("asr: %s frame %d: %w", e.ID, t, err)
		}
		return nn.Argmax(logits), nil
	}
}

// labelFrames labels every frame of feats that silent (nil: none) does
// not force to silence; a frame's label depends on no other label, so the
// silent ones are never forwarded.
func labelFrames(feats [][]float64, silent []bool, label func([][]float64, int) (int, error)) ([]int, error) {
	labels := make([]int, len(feats))
	for t := range feats {
		if silent != nil && silent[t] {
			labels[t] = phoneme.SilIndex()
			continue
		}
		l, err := label(feats, t)
		if err != nil {
			return nil, err
		}
		labels[t] = l
	}
	return labels, nil
}

// FrameLabels implements FrameLabeler: per-frame argmax phonemes, every
// frame labelled (no energy gate).
func (e *MLPEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	raw, err := e.rawFeatures(clip, nil)
	if err != nil {
		return nil, err
	}
	return labelFrames(raw, nil, e.frameLabeler())
}

// Transcribe implements Recognizer.
func (e *MLPEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *MLPEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	raw, err := e.rawFeatures(clip, cache)
	if err != nil {
		return "", err
	}
	labels, err := labelFrames(raw, clipSilence(clip, len(raw), e.MFCC, cache), e.frameLabeler())
	if err != nil {
		return "", err
	}
	return decodeLabels(labels, e.Dec, cache, e.ID)
}

// TargetLoss implements GradientModel: the mean framewise cross-entropy of
// the clip against targetLabels, plus dLoss/dsample obtained by exact
// backpropagation through the network, context stacking, and MFCC
// extraction.
func (e *MLPEngine) TargetLoss(clip *audio.Clip, targetLabels []int) (float64, []float64, error) {
	feats, st, err := e.features(clip, true)
	if err != nil {
		return 0, nil, err
	}
	if len(targetLabels) != len(feats) {
		return 0, nil, fmt.Errorf("asr: %d target labels for %d frames", len(targetLabels), len(feats))
	}
	var total float64
	featGrads := make([][]float64, len(feats))
	for t, f := range feats {
		logits, cache, err := e.Net.ForwardCache(f)
		if err != nil {
			return 0, nil, err
		}
		loss, dLogits, err := nn.CrossEntropy(logits, targetLabels[t])
		if err != nil {
			return 0, nil, fmt.Errorf("asr: frame %d: %w", t, err)
		}
		total += loss
		dx, err := e.Net.Backward(cache, dLogits, nil)
		if err != nil {
			return 0, nil, err
		}
		featGrads[t] = dx
	}
	n := float64(len(feats))
	for t := range featGrads {
		for i := range featGrads[t] {
			featGrads[t][i] /= n
		}
	}
	mfccGrads := dsp.StackContextBackward(featGrads, e.Context, e.MFCC.Config().NumCoeffs)
	sampleGrad, err := e.MFCC.Backward(mfccGrads, st)
	if err != nil {
		return 0, nil, err
	}
	return total / n, sampleGrad, nil
}
