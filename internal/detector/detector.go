// Package detector implements MVP-EARS, the paper's contribution: a
// multiversion-programming-inspired audio adversarial-example detector.
// An input audio is transcribed in parallel by a target ASR and N
// auxiliary ASRs; each transcription pair (target, auxiliary) is converted
// to a phonetic encoding and scored with Jaro-Winkler similarity; the
// N-dimensional similarity vector is classified as benign or adversarial
// by a binary classifier (SVM by default).
package detector

import (
	"context"
	"fmt"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/dataset"
	"mvpears/internal/obs"
	"mvpears/internal/phonetic"
	"mvpears/internal/similarity"
)

// DefaultEncoder is the phonetic encoding used by the PE_* similarity
// methods: word-wise Metaphone.
func DefaultEncoder(sentence string) string {
	return phonetic.Encode(phonetic.Metaphone, sentence)
}

// DefaultMethod returns the paper's chosen similarity method,
// PE_JaroWinkler (Table III winner).
func DefaultMethod() (similarity.Method, error) {
	reg, err := similarity.NewRegistry(DefaultEncoder)
	if err != nil {
		return similarity.Method{}, err
	}
	return reg.Get(similarity.MethodPEJaroWinkler)
}

// Detector is an MVP-EARS instance: one target engine, N auxiliary
// engines, a similarity method and a trained binary classifier.
type Detector struct {
	Target      asr.Recognizer
	Auxiliaries []asr.Recognizer
	Method      similarity.Method
	Classifier  classify.Classifier
	// Sequential disables parallel transcription (the paper's
	// architecture runs engines concurrently; sequential mode exists for
	// deterministic timing studies).
	Sequential bool
	// Cascade, when non-nil (EnableCascade), schedules Detect and
	// BatchDetect leader-first with a calibrated benign short-circuit.
	// Training and calibration features always use the full ensemble.
	Cascade *Cascade
}

// New builds a detector with the paper's defaults (PE_JaroWinkler + SVM).
// The classifier is untrained; call Train or TrainOnSamples.
func New(target asr.Recognizer, auxiliaries []asr.Recognizer) (*Detector, error) {
	if target == nil {
		return nil, fmt.Errorf("detector: nil target engine")
	}
	if len(auxiliaries) == 0 {
		return nil, fmt.Errorf("detector: at least one auxiliary engine is required")
	}
	for i, aux := range auxiliaries {
		if aux == nil {
			return nil, fmt.Errorf("detector: auxiliary %d is nil", i)
		}
	}
	method, err := DefaultMethod()
	if err != nil {
		return nil, err
	}
	return &Detector{
		Target:      target,
		Auxiliaries: auxiliaries,
		Method:      method,
		Classifier:  classify.NewSVM(),
	}, nil
}

// Transcriptions holds the per-engine outputs for one input.
type Transcriptions struct {
	Target string
	Aux    []string
}

// TranscribeAll runs the target and every auxiliary on the clip and
// returns their raw transcriptions. Engines run concurrently unless
// Sequential is set, and engines with identical MFCC front ends share a
// per-clip feature cache. The context cancels per-engine dispatch.
func (d *Detector) TranscribeAll(ctx context.Context, clip *audio.Clip) (Transcriptions, error) {
	return d.transcribeAll(ctx, clip, !d.Sequential)
}

// transcribeAll is TranscribeAll with the engine-level parallelism decided
// by the caller. Batch operations pass false when their worker pool
// already saturates the CPUs, so a batch does not multiply pool-size ×
// engine-count goroutines.
func (d *Detector) transcribeAll(ctx context.Context, clip *audio.Clip, parallel bool) (Transcriptions, error) {
	engines := make([]asr.Recognizer, 0, len(d.Auxiliaries)+1)
	engines = append(engines, d.Target)
	engines = append(engines, d.Auxiliaries...)
	texts, err := asr.TranscribeAll(ctx, engines, clip, parallel)
	out := Transcriptions{}
	if err != nil {
		return out, fmt.Errorf("detector: %w", err)
	}
	out.Target = texts[0]
	out.Aux = texts[1:]
	return out, nil
}

// Scores converts transcriptions into the similarity feature vector.
func (d *Detector) Scores(tr Transcriptions) []float64 {
	scores := make([]float64, len(tr.Aux))
	for i, aux := range tr.Aux {
		scores[i] = d.Method.Compare(tr.Target, aux)
	}
	return scores
}

// FeatureVector transcribes the clip on all engines and returns the
// similarity scores, without classifying them.
func (d *Detector) FeatureVector(ctx context.Context, clip *audio.Clip) ([]float64, error) {
	return d.featureVector(ctx, clip, !d.Sequential)
}

// featureVector is FeatureVector with explicit engine parallelism.
func (d *Detector) featureVector(ctx context.Context, clip *audio.Clip, parallel bool) ([]float64, error) {
	tr, err := d.transcribeAll(ctx, clip, parallel)
	if err != nil {
		return nil, err
	}
	return d.Scores(tr), nil
}

// Decision is the detector's verdict for one input.
type Decision struct {
	Adversarial    bool
	Scores         []float64
	Transcriptions Transcriptions
	// Cascade reports scheduling provenance (which engines ran and why)
	// when the decision went through a cascade; nil on the plain path.
	// When the cascade short-circuits, the skipped dimensions of Scores
	// hold benign fill means — Cascade.Imputed marks them.
	Cascade *CascadeInfo
	// Timing decomposes the cost of producing the decision.
	Timing Timing
}

// Timing decomposes one detection into the paper's §V-I overhead parts.
type Timing struct {
	Recognition time.Duration // wall time of the parallel transcriptions
	Similarity  time.Duration // similarity-vector computation
	Classify    time.Duration // classifier inference
}

// Detect classifies the clip; the classifier must be trained. A cancelled
// or expired context aborts the remaining per-engine work and returns the
// context's error. With a cascade attached (EnableCascade) the scheduler
// decides which engines run; otherwise the full ensemble does.
func (d *Detector) Detect(ctx context.Context, clip *audio.Clip) (Decision, error) {
	return d.detect(ctx, clip, !d.Sequential)
}

// detect is Detect with explicit engine parallelism.
func (d *Detector) detect(ctx context.Context, clip *audio.Clip, parallel bool) (Decision, error) {
	if d.Classifier == nil {
		return Decision{}, fmt.Errorf("detector: no classifier configured")
	}
	if d.Cascade != nil {
		return d.detectCascade(ctx, clip, parallel)
	}
	return d.detectFull(ctx, clip, parallel)
}

// detectFull runs the unconditional full-ensemble pipeline. When the
// context carries an obs.Trace, the pipeline records one span per stage
// (transcribe here, phonetic, similarity and classify in Decide; the
// per-engine transcription spans are recorded inside internal/asr, and the
// decode span by whoever decoded the audio).
func (d *Detector) detectFull(ctx context.Context, clip *audio.Clip, parallel bool) (Decision, error) {
	trace := obs.TraceFrom(ctx)
	start := time.Now()
	tr, err := d.transcribeAll(ctx, clip, parallel)
	if err != nil {
		return Decision{}, err
	}
	trace.Record(obs.StageTranscribe, "", start)
	recognition := time.Since(start)
	dec, err := d.Decide(trace, tr)
	dec.Timing.Recognition = recognition
	return dec, err
}

// Decide is the detector's verdict on a set of transcriptions, the one
// step every path shares after recognition: phonetic-encode each
// transcription, score the target's encoding against each auxiliary's,
// classify the score vector. It records the phonetic, similarity and
// classify spans on trace (nil is fine) and sets Timing.Similarity
// (encoding + scoring, the paper's §V-I meaning) and Timing.Classify;
// Timing.Recognition is the caller's. Encode + Score compose to exactly
// Method.Compare, so the scores equal Scores(tr) bit for bit.
func (d *Detector) Decide(trace *obs.Trace, tr Transcriptions) (Decision, error) {
	simStart := time.Now()
	encTarget := d.Method.Encode(tr.Target)
	encAux := make([]string, len(tr.Aux))
	for i, aux := range tr.Aux {
		encAux[i] = d.Method.Encode(aux)
	}
	trace.Record(obs.StagePhonetic, "", simStart)
	start := time.Now()
	scores := make([]float64, len(encAux))
	for i, enc := range encAux {
		scores[i] = d.Method.Score(encTarget, enc)
	}
	trace.Record(obs.StageSimilarity, "", start)
	similarity := time.Since(simStart)

	start = time.Now()
	pred, err := d.Classifier.Predict(scores)
	if err != nil {
		return Decision{}, fmt.Errorf("detector: classifying: %w", err)
	}
	trace.Record(obs.StageClassify, "", start)
	timing := Timing{Similarity: similarity, Classify: time.Since(start)}
	return Decision{Adversarial: pred == 1, Scores: scores, Transcriptions: tr, Timing: timing}, nil
}

// PhoneticEncode applies the detector's similarity method's phonetic
// encoder to a transcription (identity for non-PE methods). Verdict
// explanations use it to show the encodings behind each score.
func (d *Detector) PhoneticEncode(s string) string { return d.Method.Encode(s) }

// MethodName names the configured similarity method (e.g. PE_JaroWinkler).
func (d *Detector) MethodName() string { return string(d.Method.Name) }

// Train fits the classifier on precomputed feature vectors: benignX get
// label 0, aeX label 1.
func (d *Detector) Train(benignX, aeX [][]float64) error {
	if d.Classifier == nil {
		return fmt.Errorf("detector: no classifier configured")
	}
	X := make([][]float64, 0, len(benignX)+len(aeX))
	y := make([]int, 0, len(benignX)+len(aeX))
	for _, x := range benignX {
		X = append(X, x)
		y = append(y, 0)
	}
	for _, x := range aeX {
		X = append(X, x)
		y = append(y, 1)
	}
	if err := d.Classifier.Fit(X, y); err != nil {
		return fmt.Errorf("detector: training classifier: %w", err)
	}
	return nil
}

// TrainOnSamples extracts features from the samples and fits the
// classifier.
func (d *Detector) TrainOnSamples(samples []dataset.Sample) error {
	X, y, err := d.Features(samples)
	if err != nil {
		return err
	}
	var benignX, aeX [][]float64
	for i := range X {
		if y[i] == 1 {
			aeX = append(aeX, X[i])
		} else {
			benignX = append(benignX, X[i])
		}
	}
	return d.Train(benignX, aeX)
}

// ScorePools extracts the per-auxiliary similarity-score pools (λBe, λAk)
// from feature matrices, for the MAE experiments.
func ScorePools(benignX, aeX [][]float64) (*dataset.Pools, error) {
	if len(benignX) == 0 || len(aeX) == 0 {
		return nil, fmt.Errorf("detector: empty feature matrices")
	}
	numAux := len(benignX[0])
	benign := make([][]float64, numAux)
	ae := make([][]float64, numAux)
	for _, v := range benignX {
		if len(v) != numAux {
			return nil, fmt.Errorf("detector: inconsistent benign feature width")
		}
		for j, s := range v {
			benign[j] = append(benign[j], s)
		}
	}
	for _, v := range aeX {
		if len(v) != numAux {
			return nil, fmt.Errorf("detector: inconsistent AE feature width")
		}
		for j, s := range v {
			ae[j] = append(ae[j], s)
		}
	}
	return dataset.NewPools(benign, ae)
}
