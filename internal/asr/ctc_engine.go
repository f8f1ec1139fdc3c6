package asr

import (
	"fmt"
	"math/rand"

	"mvpears/internal/audio"
	"mvpears/internal/ctc"
	"mvpears/internal/dsp"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
	"mvpears/internal/speech"
)

// DS2 is the optional end-to-end CTC engine: like real DeepSpeech it is
// trained without frame alignments, directly maximizing the CTC
// likelihood of the phoneme sequence. It is not part of the paper's
// engine roster but demonstrates the CTC substrate end to end and serves
// as an extra architecture for ablations.
const DS2 EngineID = "DS2"

// CTCEngine is a context-window MLP whose outputs are CTC classes
// ([blank, phoneme0, phoneme1, ...]) decoded by prefix beam search.
type CTCEngine struct {
	ID         EngineID
	SampleRate int
	Context    int
	MFCC       *dsp.MFCC
	Net        *nn.MLP
	Dec        *Decoder
	BeamWidth  int
}

var (
	_ Recognizer       = (*CTCEngine)(nil)
	_ FrameLabeler     = (*CTCEngine)(nil)
	_ CacheTranscriber = (*CTCEngine)(nil)
)

// Name implements Recognizer.
func (e *CTCEngine) Name() string { return string(e.ID) }

// logProbs runs the acoustic model and returns per-frame CTC
// log-probabilities.
func (e *CTCEngine) logProbs(clip *audio.Clip, cache *FeatureCache) ([][]float64, error) {
	feats, err := clipFeatures(clip, e.SampleRate, e.MFCC, cache, e.ID)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(feats))
	stacked := make([]float64, (2*e.Context+1)*e.MFCC.Config().NumCoeffs)
	scratch := e.Net.NewScratch()
	for t := range feats {
		dsp.StackFrame(feats, t, e.Context, stacked)
		logits, err := e.Net.ForwardScratch(stacked, scratch)
		if err != nil {
			return nil, err
		}
		out[t] = nn.LogSoftmax(logits)
	}
	return out, nil
}

// FrameLabels implements FrameLabeler: per-frame argmax with blanks
// rendered as silence.
func (e *CTCEngine) FrameLabels(clip *audio.Clip) ([]int, error) {
	lp, err := e.logProbs(clip, nil)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(lp))
	sil := phoneme.SilIndex()
	for t, row := range lp {
		k := nn.Argmax(row)
		if k == ctc.Blank {
			labels[t] = sil
		} else {
			labels[t] = k - 1
		}
	}
	return labels, nil
}

// Transcribe implements Recognizer: prefix beam search over the CTC
// lattice, then lexicon+LM word decoding.
func (e *CTCEngine) Transcribe(clip *audio.Clip) (string, error) {
	return e.TranscribeWithCache(clip, nil)
}

// TranscribeWithCache implements CacheTranscriber.
func (e *CTCEngine) TranscribeWithCache(clip *audio.Clip, cache *FeatureCache) (string, error) {
	lp, err := e.logProbs(clip, cache)
	if err != nil {
		return "", err
	}
	width := e.BeamWidth
	if width <= 0 {
		width = 8
	}
	ctcLabels := ctc.BeamDecode(lp, width)
	ids := make([]int, len(ctcLabels))
	for i, l := range ctcLabels {
		ids[i] = l - 1
	}
	if len(ids) == 0 {
		return "", nil
	}
	text, err := e.Dec.DecodePhonemes(ids)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", e.ID, err)
	}
	return text, nil
}

// TrainCTCEngine trains the end-to-end engine on the utterances using the
// CTC loss — no frame alignments are consumed, mirroring real DeepSpeech
// training.
func TrainCTCEngine(cfg TrainConfig, utts []speech.Utterance, dec *Decoder, hidden int, seed int64) (*CTCEngine, error) {
	if len(utts) == 0 {
		return nil, fmt.Errorf("asr: no utterances to train on")
	}
	mcfg := dsp.DefaultMFCCConfig(cfg.SampleRate)
	mfcc, err := dsp.NewMFCC(mcfg)
	if err != nil {
		return nil, err
	}
	const context = 2
	rng := rand.New(rand.NewSource(seed))
	numClasses := phoneme.Count() + 1 // + blank
	net, err := nn.NewMLP(rng, (2*context+1)*mcfg.NumCoeffs, hidden, numClasses)
	if err != nil {
		return nil, err
	}
	eng := &CTCEngine{ID: DS2, SampleRate: cfg.SampleRate, Context: context, MFCC: mfcc, Net: net, Dec: dec, BeamWidth: 8}

	// Precompute features, CTC targets, and frame alignments (the latter
	// only for the warm-start phase).
	type trainItem struct {
		feats   [][]float64
		targets []int
		frames  []int
	}
	items := make([]trainItem, 0, len(utts))
	for _, u := range utts {
		feats, err := mfcc.Extract(u.Clip.Samples)
		if err != nil {
			return nil, err
		}
		stacked := dsp.StackContext(feats, context)
		ids, err := phoneme.SentencePhonemes(u.Text)
		if err != nil {
			return nil, err
		}
		targets := make([]int, len(ids))
		for i, id := range ids {
			targets[i] = id + 1 // shift past the blank
		}
		if len(targets) > len(stacked) {
			continue // utterance too short for its label sequence
		}
		frames := u.Alignment.Labels(len(u.Clip.Samples), mcfg.FrameLen, mcfg.Hop)
		items = append(items, trainItem{feats: stacked, targets: targets, frames: frames})
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("asr: no trainable utterances for CTC")
	}
	opt := nn.NewSGD(0.02, 0.9)
	grads := net.NewGrads()
	order := rng.Perm(len(items))
	// Phase 1: framewise warm start (standard recipe — pure CTC from a
	// random init converges poorly at this scale).
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			item := items[idx]
			grads.Zero()
			for t, f := range item.feats {
				logits, cache, err := net.ForwardCache(f)
				if err != nil {
					return nil, err
				}
				_, dl, err := nn.CrossEntropy(logits, item.frames[t]+1)
				if err != nil {
					return nil, err
				}
				if _, err := net.Backward(cache, dl, grads); err != nil {
					return nil, err
				}
			}
			opt.Step(net, grads, len(item.feats))
		}
	}
	// Phase 2: CTC fine-tuning (alignment-free objective).
	epochs := cfg.Epochs
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			item := items[idx]
			T := len(item.feats)
			logits := make([][]float64, T)
			caches := make([]*nn.MLPCache, T)
			logProbs := make([][]float64, T)
			for t, f := range item.feats {
				lg, cache, err := net.ForwardCache(f)
				if err != nil {
					return nil, err
				}
				logits[t] = lg
				caches[t] = cache
				logProbs[t] = nn.LogSoftmax(lg)
			}
			_, gradLP, err := ctc.Loss(logProbs, item.targets)
			if err != nil {
				return nil, fmt.Errorf("asr: CTC loss: %w", err)
			}
			grads.Zero()
			for t := 0; t < T; t++ {
				// Chain through log-softmax: dlogit_k = g_k - p_k * sum(g).
				p := nn.Softmax(logits[t])
				var sum float64
				for _, g := range gradLP[t] {
					sum += g
				}
				dLogits := make([]float64, numClasses)
				for k := 0; k < numClasses; k++ {
					dLogits[k] = gradLP[t][k] - p[k]*sum
				}
				if _, err := net.Backward(caches[t], dLogits, grads); err != nil {
					return nil, err
				}
			}
			opt.Step(net, grads, T)
		}
	}
	return eng, nil
}
