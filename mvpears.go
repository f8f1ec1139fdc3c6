// Package mvpears is a from-scratch Go reproduction of MVP-EARS, the
// multiversion-programming-inspired audio adversarial-example detector of
// Zeng et al., "A Multiversion Programming Inspired Approach to Detecting
// Audio Adversarial Examples" (DSN 2019).
//
// The idea: run one *target* ASR and several architecturally diverse
// *auxiliary* ASRs on every input in parallel. Benign audio transcribes
// (almost) identically everywhere; an adversarial example (AE) crafted
// against the target fails to transfer, so at least one auxiliary
// disagrees. Each (target, auxiliary) transcription pair is converted to a
// phonetic encoding and scored with Jaro-Winkler similarity, and the
// similarity vector is classified benign/adversarial by an SVM.
//
// Everything is self-contained and CPU-only: the package trains its own
// diverse ASR engines (two DeepSpeech-style MLP frame classifiers, an
// Elman-RNN engine, a GMM-HMM engine, and a deliberately weak engine) on a
// synthesized speech corpus, and ships real white-box (gradient through
// the MFCC front end) and black-box (genetic + query-based) attacks to
// craft the AEs it detects.
//
// Quick start:
//
//	sys, err := mvpears.Build(mvpears.WithQuickScale())
//	...
//	det, err := sys.DetectCtx(ctx, clip)
//	if det.Adversarial { ... }
package mvpears

import (
	"fmt"
	"sync"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/dataset"
	"mvpears/internal/detector"
	"mvpears/internal/speech"
)

// Clip is a mono PCM audio clip (samples in [-1, 1]).
type Clip = audio.Clip

// EngineID names one of the built-in ASR engines.
type EngineID = asr.EngineID

// The built-in engines, named after the systems they stand in for.
const (
	DS0 = asr.DS0 // DeepSpeech v0.1.0 stand-in (the attack target)
	DS1 = asr.DS1 // DeepSpeech v0.1.1 stand-in
	GCS = asr.GCS // Google Cloud Speech stand-in (RNN)
	AT  = asr.AT  // Amazon Transcribe stand-in (GMM-HMM)
	KLD = asr.KLD // weak Kaldi-like engine (for the weak-auxiliary ablation)
	DS2 = asr.DS2 // optional end-to-end CTC engine (WithCTCAuxiliary)
)

// SaveWAV writes a clip as a 16-bit mono PCM WAV file.
func SaveWAV(path string, c *Clip) error { return audio.SaveWAV(path, c) }

// config collects Build options.
type config struct {
	train       asr.TrainConfig
	scale       dataset.Scale
	auxiliaries []EngineID
	classifier  string
	trainNow    bool
}

// Option customizes Build.
type Option func(*config) error

// WithQuickScale trains small engines on a small corpus and dataset —
// seconds instead of minutes, at reduced accuracy. Intended for demos and
// tests.
func WithQuickScale() Option {
	return func(c *config) error {
		c.train = asr.QuickTrainConfig()
		c.scale = dataset.TinyScale()
		return nil
	}
}

// WithSeed fixes the master seed for engine training and dataset
// generation.
func WithSeed(seed int64) Option {
	return func(c *config) error {
		c.train.Seed = seed
		c.scale.Seed = seed
		return nil
	}
}

// WithAuxiliaries selects which auxiliary engines the detector uses
// (default: DS1, GCS, AT — the paper's three-auxiliary system).
func WithAuxiliaries(ids ...EngineID) Option {
	return func(c *config) error {
		if len(ids) == 0 {
			return fmt.Errorf("mvpears: WithAuxiliaries needs at least one engine")
		}
		for _, id := range ids {
			if id == DS0 {
				return fmt.Errorf("mvpears: DS0 is the target engine and cannot be an auxiliary")
			}
		}
		c.auxiliaries = ids
		return nil
	}
}

// WithClassifier selects the binary classifier: "svm" (default), "knn",
// "forest", "logreg", or "bayes".
func WithClassifier(name string) Option {
	return func(c *config) error {
		switch name {
		case "svm", "knn", "forest", "logreg", "bayes":
			c.classifier = name
			return nil
		default:
			return fmt.Errorf("mvpears: unknown classifier %q (svm, knn, forest, logreg, bayes)", name)
		}
	}
}

// WithCTCAuxiliary additionally trains the end-to-end CTC engine (DS2)
// and appends it to the auxiliary list, giving a four-auxiliary detector.
func WithCTCAuxiliary() Option {
	return func(c *config) error {
		c.train.IncludeCTC = true
		for _, id := range c.auxiliaries {
			if id == DS2 {
				return nil
			}
		}
		c.auxiliaries = append(c.auxiliaries, DS2)
		return nil
	}
}

// WithoutTraining skips crafting the AE dataset and training the
// classifier; the returned System can transcribe and craft AEs, and can be
// trained later with TrainDetector or TrainProactive.
func WithoutTraining() Option {
	return func(c *config) error {
		c.trainNow = false
		return nil
	}
}

// WithDatasetScale overrides the AE/benign dataset sizes used to train
// the detector.
func WithDatasetScale(benign, whiteBox, blackBox int) Option {
	return func(c *config) error {
		if benign <= 0 || whiteBox < 0 || blackBox < 0 {
			return fmt.Errorf("mvpears: invalid dataset scale (%d, %d, %d)", benign, whiteBox, blackBox)
		}
		c.scale.Benign = benign
		c.scale.WhiteBox = whiteBox
		c.scale.BlackBox = blackBox
		return nil
	}
}

func newClassifier(name string) classify.Classifier {
	switch name {
	case "knn":
		return classify.NewKNN()
	case "forest":
		return classify.NewRandomForest()
	case "logreg":
		return classify.NewLogReg()
	case "bayes":
		return classify.NewNaiveBayes()
	default:
		return classify.NewSVM()
	}
}

// System is a trained MVP-EARS deployment: the engine set, the detector
// pipeline, and (after Build with training, the default) a fitted
// classifier.
type System struct {
	engines *asr.EngineSet
	det     *detector.Detector
	data    *dataset.Dataset
	pools   *dataset.Pools

	// fp is the model artifact fingerprint (see ModelFingerprint).
	fpMu sync.Mutex
	fp   string
}

// Build trains the ASR engines, crafts the AE training dataset (unless
// WithoutTraining), and fits the detector. This is CPU-heavy: roughly half
// a minute at quick scale and a few minutes at default scale.
func Build(opts ...Option) (*System, error) {
	cfg := config{
		train:       asr.DefaultTrainConfig(),
		scale:       dataset.SmallScale(),
		auxiliaries: []EngineID{DS1, GCS, AT},
		classifier:  "svm",
		trainNow:    true,
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	engines, err := asr.BuildEngines(cfg.train)
	if err != nil {
		return nil, fmt.Errorf("mvpears: training engines: %w", err)
	}
	aux := make([]asr.Recognizer, 0, len(cfg.auxiliaries))
	for _, id := range cfg.auxiliaries {
		rec, err := engines.Get(id)
		if err != nil {
			return nil, err
		}
		aux = append(aux, rec)
	}
	det, err := detector.New(engines.DS0, aux)
	if err != nil {
		return nil, err
	}
	det.Classifier = newClassifier(cfg.classifier)
	sys := &System{engines: engines, det: det}
	if !cfg.trainNow {
		return sys, nil
	}
	data, err := dataset.Build(engines, cfg.scale)
	if err != nil {
		return nil, fmt.Errorf("mvpears: building AE dataset: %w", err)
	}
	sys.data = data
	if err := sys.TrainDetector(); err != nil {
		return nil, err
	}
	return sys, nil
}

// GenerateSpeech synthesizes a benign utterance of the given text with a
// randomly drawn speaker (seeded). Useful for demos and tests; any word
// outside the built-in lexicon is pronounced by grapheme-to-phoneme rules.
func (s *System) GenerateSpeech(text string, seed int64) (*Clip, error) {
	synth := speech.NewSynthesizer(s.engines.SampleRate)
	rng := newRand(seed)
	clip, _, err := synth.SynthesizeSentence(text, speech.RandomSpeaker(rng), rng)
	if err != nil {
		return nil, fmt.Errorf("mvpears: synthesizing %q: %w", text, err)
	}
	return clip, nil
}

// TrainDetector (re)fits the classifier on the System's AE dataset and
// caches the similarity-score pools used by TrainProactive.
func (s *System) TrainDetector() error {
	if s.data == nil {
		return fmt.Errorf("mvpears: no dataset; Build without WithoutTraining, or craft AEs first")
	}
	benignX, _, err := s.det.Features(s.data.Benign)
	if err != nil {
		return err
	}
	aeX, _, err := s.det.Features(s.data.AEs())
	if err != nil {
		return err
	}
	pools, err := detector.ScorePools(benignX, aeX)
	if err != nil {
		return err
	}
	s.pools = pools
	return s.det.Train(benignX, aeX)
}

// TrainProactive refits the classifier on synthesized hypothetical
// transferable-AE (MAE) feature vectors — the paper's comprehensive
// system, able to detect AEs that fool the target plus any strict subset
// of the auxiliaries, before such attacks exist.
func (s *System) TrainProactive() error {
	if s.pools == nil {
		if err := s.TrainDetector(); err != nil {
			return err
		}
	}
	return detector.ProactiveTrain(s.det, s.pools, detector.ComprehensiveConfig())
}
