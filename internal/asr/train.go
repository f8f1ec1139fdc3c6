package asr

import (
	"fmt"
	"math/rand"

	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
	"mvpears/internal/lm"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
	"mvpears/internal/speech"
)

// TrainConfig controls how the engine set is trained.
type TrainConfig struct {
	SampleRate    int
	NumUtterances int   // size of the synthesized training corpus
	Epochs        int   // epochs for the neural engines
	Seed          int64 // master seed; engines derive distinct sub-seeds
	LMWeight      float64
	// IncludeCTC also trains the optional end-to-end CTC engine (DS2),
	// which is not part of the paper's roster but can serve as a fourth
	// auxiliary.
	IncludeCTC bool
}

// DefaultTrainConfig returns the configuration used by the experiment
// harness: enough data for >95% benign transcription accuracy on every
// strong engine.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{SampleRate: 8000, NumUtterances: 360, Epochs: 6, Seed: 1, LMWeight: 0.3}
}

// QuickTrainConfig returns a much smaller configuration for unit tests.
func QuickTrainConfig() TrainConfig {
	return TrainConfig{SampleRate: 8000, NumUtterances: 80, Epochs: 3, Seed: 1, LMWeight: 0.3}
}

// EngineSet bundles the trained target and auxiliary engines.
type EngineSet struct {
	SampleRate int
	DS0        *MLPEngine
	DS1        *MLPEngine
	GCS        *RNNEngine
	AT         *GMMEngine
	KLD        *WeakEngine
	// CTC is the optional end-to-end engine (nil unless
	// TrainConfig.IncludeCTC was set).
	CTC *CTCEngine
}

// Get returns an engine by id.
func (s *EngineSet) Get(id EngineID) (Recognizer, error) {
	switch id {
	case DS0:
		return s.DS0, nil
	case DS1:
		return s.DS1, nil
	case GCS:
		return s.GCS, nil
	case AT:
		return s.AT, nil
	case KLD:
		return s.KLD, nil
	case DS2:
		if s.CTC == nil {
			return nil, fmt.Errorf("asr: DS2 was not trained (set TrainConfig.IncludeCTC)")
		}
		return s.CTC, nil
	default:
		return nil, fmt.Errorf("asr: unknown engine %q", id)
	}
}

// EnableQuantized and DisableQuantized are adapters kept for callers
// pinned to the removed int8 path (bench/README.md): the float64 blocked
// kernels are the fast path, so there is nothing to switch and nothing to
// report.
func (s *EngineSet) EnableQuantized([]speech.Utterance) (enabled, fellBack []EngineID, err error) {
	return nil, nil, nil
}

// DisableQuantized does nothing; see EnableQuantized.
func (s *EngineSet) DisableQuantized() {}

// Target returns the attack-target engine (DS0).
func (s *EngineSet) Target() *MLPEngine { return s.DS0 }

// Auxiliaries returns the strong auxiliary engines in the paper's order.
func (s *EngineSet) Auxiliaries() []Recognizer {
	return []Recognizer{s.DS1, s.GCS, s.AT}
}

// BuildEngines synthesizes a training corpus and trains all five engines.
// DS0 and DS1 share the architecture family but differ in width, seed, and
// training subset, mirroring DeepSpeech v0.1.0 vs v0.1.1.
func BuildEngines(cfg TrainConfig) (*EngineSet, error) {
	if cfg.SampleRate <= 0 || cfg.NumUtterances <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("asr: invalid train config %+v", cfg)
	}
	synth := speech.NewSynthesizer(cfg.SampleRate)
	utts, err := speech.GenerateUtterances(synth, cfg.NumUtterances, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("asr: generating training corpus: %w", err)
	}
	// Shared language model over the corpus transcripts.
	model, err := lm.New(2, 0.05)
	if err != nil {
		return nil, err
	}
	sents := make([][]string, len(utts))
	for i, u := range utts {
		sents[i] = phoneme.Tokenize(u.Text)
	}
	// Command words must be in-LM so attacks decode cleanly everywhere.
	for _, cmd := range speech.MaliciousCommands {
		sents = append(sents, phoneme.Tokenize(cmd))
	}
	model.Train(sents)
	dec, err := NewDecoder(model, cfg.LMWeight, 5)
	if err != nil {
		return nil, err
	}

	set := &EngineSet{SampleRate: cfg.SampleRate}
	// DS1 trains on the first 85% of the corpus, DS0 on the last 85%:
	// heavily overlapping but not identical, like two release versions.
	cut := len(utts) * 15 / 100
	set.DS0, err = trainMLPEngine(DS0, cfg, utts[cut:], dec, dsp.DefaultMFCCConfig(cfg.SampleRate), 64, 2, cfg.Seed+100)
	if err != nil {
		return nil, fmt.Errorf("asr: training DS0: %w", err)
	}
	// DS1 mirrors the DeepSpeech v0.1.0 -> v0.1.1 relationship: the same
	// architecture family with implementation tweaks — a slightly wider
	// hidden layer, wider context, and a revised feature front end.
	ds1Cfg := dsp.DefaultMFCCConfig(cfg.SampleRate)
	ds1Cfg.NumFilters = 23
	ds1Cfg.LowHz = 120
	ds1Cfg.PreEmph = 0.95
	set.DS1, err = trainMLPEngine(DS1, cfg, utts[:len(utts)-cut], dec, ds1Cfg, 72, 3, cfg.Seed+200)
	if err != nil {
		return nil, fmt.Errorf("asr: training DS1: %w", err)
	}
	set.GCS, err = trainRNNEngine(GCS, cfg, utts, dec, 48, cfg.Seed+300)
	if err != nil {
		return nil, fmt.Errorf("asr: training GCS: %w", err)
	}
	set.AT, err = trainGMMEngine(AT, cfg, utts, dec, cfg.Seed+400)
	if err != nil {
		return nil, fmt.Errorf("asr: training AT: %w", err)
	}
	weakCount := len(utts) / 12
	if weakCount < 8 {
		weakCount = 8
	}
	if weakCount > len(utts) {
		weakCount = len(utts)
	}
	set.KLD, err = trainWeakEngine(KLD, cfg, utts[:weakCount], dec)
	if err != nil {
		return nil, fmt.Errorf("asr: training KLD: %w", err)
	}
	if cfg.IncludeCTC {
		set.CTC, err = TrainCTCEngine(cfg, utts, dec, 72, cfg.Seed+500)
		if err != nil {
			return nil, fmt.Errorf("asr: training DS2: %w", err)
		}
	}
	return set, nil
}

func trainMLPEngine(id EngineID, cfg TrainConfig, utts []speech.Utterance, dec *Decoder, mcfg dsp.MFCCConfig, hidden, context int, seed int64) (*MLPEngine, error) {
	mfcc, err := dsp.NewMFCC(mcfg)
	if err != nil {
		return nil, err
	}
	inDim := (2*context + 1) * mfcc.Config().NumCoeffs
	rng := rand.New(rand.NewSource(seed))
	net, err := nn.NewMLP(rng, inDim, hidden, phoneme.Count())
	if err != nil {
		return nil, err
	}
	eng := &MLPEngine{ID: id, SampleRate: cfg.SampleRate, Context: context, MFCC: mfcc, Net: net, Dec: dec}
	// Build the frame-level training set from gold alignments.
	var xs [][]float64
	var ys []int
	mc := mfcc.Config()
	for _, u := range utts {
		feats, err := mfcc.Extract(u.Clip.Samples)
		if err != nil {
			return nil, err
		}
		stacked := dsp.StackContext(feats, context)
		labels := u.Alignment.Labels(len(u.Clip.Samples), mc.FrameLen, mc.Hop)
		for t := range stacked {
			xs = append(xs, stacked[t])
			ys = append(ys, labels[t])
		}
	}
	opt := nn.NewSGD(0.05, 0.9)
	grads := net.NewGrads()
	const batch = 32
	order := rng.Perm(len(xs))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			grads.Zero()
			for _, idx := range order[start:end] {
				logits, cache, err := net.ForwardCache(xs[idx])
				if err != nil {
					return nil, err
				}
				_, dl, err := nn.CrossEntropy(logits, ys[idx])
				if err != nil {
					return nil, err
				}
				if _, err := net.Backward(cache, dl, grads); err != nil {
					return nil, err
				}
			}
			opt.Step(net, grads, end-start)
		}
	}
	return eng, nil
}

func trainRNNEngine(id EngineID, cfg TrainConfig, utts []speech.Utterance, dec *Decoder, hidden int, seed int64) (*RNNEngine, error) {
	mcfg := dsp.MFCCConfig{
		SampleRate: cfg.SampleRate,
		FrameLen:   cfg.SampleRate * 32 / 1000,
		Hop:        cfg.SampleRate * 16 / 1000,
		NumFilters: 24,
		NumCoeffs:  14,
		PreEmph:    0.95,
		Window:     dsp.WindowHann,
		LowHz:      60,
	}
	mfcc, err := dsp.NewMFCC(mcfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	inDim := mcfg.NumCoeffs * 2 // MFCC + deltas
	net, err := nn.NewRNN(rng, inDim, hidden, phoneme.Count())
	if err != nil {
		return nil, err
	}
	eng := &RNNEngine{ID: id, SampleRate: cfg.SampleRate, MFCC: mfcc, UseDeltas: true, Net: net, Dec: dec}
	opt := nn.NewRNNSGD(0.04, 0.9, 5)
	grads := net.NewGrads()
	order := rng.Perm(len(utts))
	epochs := cfg.Epochs + 2 // RNNs converge more slowly
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, idx := range order {
			u := utts[idx]
			feats, err := eng.Features(u.Clip)
			if err != nil {
				return nil, err
			}
			labels := u.Alignment.Labels(len(u.Clip.Samples), mcfg.FrameLen, mcfg.Hop)
			logits, cache, err := net.ForwardSeq(feats)
			if err != nil {
				return nil, err
			}
			dLogits := make([][]float64, len(logits))
			for t := range logits {
				_, dl, err := nn.CrossEntropy(logits[t], labels[t])
				if err != nil {
					return nil, err
				}
				dLogits[t] = dl
			}
			grads.Zero()
			if _, err := net.BackwardSeq(cache, dLogits, grads); err != nil {
				return nil, err
			}
			opt.Step(net, grads, len(feats))
		}
	}
	return eng, nil
}

func trainGMMEngine(id EngineID, cfg TrainConfig, utts []speech.Utterance, dec *Decoder, seed int64) (*GMMEngine, error) {
	mcfg := dsp.MFCCConfig{
		SampleRate: cfg.SampleRate,
		FrameLen:   cfg.SampleRate * 32 / 1000,
		Hop:        cfg.SampleRate * 16 / 1000,
		NumFilters: 22,
		NumCoeffs:  13,
		PreEmph:    0.97,
		Window:     dsp.WindowHamming,
		LowHz:      60,
	}
	mfcc, err := dsp.NewMFCC(mcfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := phoneme.Count()
	perPhoneme := make([][][]float64, n)
	var labelSeqs [][]int
	for _, u := range utts {
		feats, err := mfcc.Extract(u.Clip.Samples)
		if err != nil {
			return nil, err
		}
		labels := u.Alignment.Labels(len(u.Clip.Samples), mcfg.FrameLen, mcfg.Hop)
		labelSeqs = append(labelSeqs, labels)
		for t, l := range labels {
			perPhoneme[l] = append(perPhoneme[l], feats[t])
		}
	}
	emitters := make([]hmm.Emitter, n)
	dim := mcfg.NumCoeffs
	for ph := 0; ph < n; ph++ {
		frames := perPhoneme[ph]
		switch {
		case len(frames) >= 40:
			g, err := hmm.FitGMM(frames, 2, 5, rng)
			if err != nil {
				return nil, err
			}
			emitters[ph] = g
		case len(frames) >= 2:
			g, err := hmm.FitGaussian(frames)
			if err != nil {
				return nil, err
			}
			emitters[ph] = g
		default:
			// Unseen phoneme: broad prior so Viterbi stays defined.
			mean := make([]float64, dim)
			variance := make([]float64, dim)
			for i := range variance {
				variance[i] = 100
			}
			g, err := hmm.NewGaussian(mean, variance)
			if err != nil {
				return nil, err
			}
			emitters[ph] = g
		}
	}
	logInit, logTrans, err := hmm.EstimateTransitions(labelSeqs, n, 0.2)
	if err != nil {
		return nil, err
	}
	model, err := hmm.NewHMM(logInit, logTrans, emitters)
	if err != nil {
		return nil, err
	}
	return &GMMEngine{ID: id, SampleRate: cfg.SampleRate, MFCC: mfcc, Model: model, Dec: dec}, nil
}

func trainWeakEngine(id EngineID, cfg TrainConfig, utts []speech.Utterance, dec *Decoder) (*WeakEngine, error) {
	mcfg := dsp.MFCCConfig{
		SampleRate: cfg.SampleRate,
		FrameLen:   cfg.SampleRate * 32 / 1000,
		Hop:        cfg.SampleRate * 16 / 1000,
		NumFilters: 16,
		NumCoeffs:  10,
		PreEmph:    0.97,
		Window:     dsp.WindowRect,
		LowHz:      100,
	}
	mfcc, err := dsp.NewMFCC(mcfg)
	if err != nil {
		return nil, err
	}
	n := phoneme.Count()
	sums := make([][]float64, n)
	counts := make([]int, n)
	for _, u := range utts {
		feats, err := mfcc.Extract(u.Clip.Samples)
		if err != nil {
			return nil, err
		}
		labels := u.Alignment.Labels(len(u.Clip.Samples), mcfg.FrameLen, mcfg.Hop)
		for t, l := range labels {
			if sums[l] == nil {
				sums[l] = make([]float64, mcfg.NumCoeffs)
			}
			counts[l]++
			for i, v := range feats[t] {
				sums[l][i] += v
			}
		}
	}
	centroids := make([][]float64, n)
	for ph := range sums {
		if counts[ph] == 0 {
			continue
		}
		c := make([]float64, mcfg.NumCoeffs)
		for i := range c {
			c[i] = sums[ph][i] / float64(counts[ph])
		}
		centroids[ph] = c
	}
	return &WeakEngine{ID: id, SampleRate: cfg.SampleRate, MFCC: mfcc, Centroids: centroids, Quant: 2.5, Dec: dec}, nil
}
