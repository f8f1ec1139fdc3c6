package mvpears

import (
	"context"
	"fmt"
	"math/rand"

	"mvpears/internal/asr"
	"mvpears/internal/attack"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/dataset"
	"mvpears/internal/detector"
	"mvpears/internal/obs"
	"mvpears/internal/obs/drift"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Detection is the detector's verdict for one audio input.
type Detection struct {
	// Adversarial is true when the input is classified as an AE.
	Adversarial bool
	// Scores are the per-auxiliary similarity scores (the feature
	// vector), in the order the auxiliaries were configured.
	Scores []float64
	// Transcriptions maps each engine name (target first under its own
	// name) to its transcription of the input.
	Transcriptions map[string]string
	// Timing decomposes the detection cost.
	Timing DetectionTiming
	// Explanation is populated when the detection ran under an
	// obs.WithExplain context (or via Explain): the per-engine phonetic
	// encodings and similarity scores behind the verdict.
	Explanation *Explanation
	// Cascade reports scheduling provenance when the verdict was produced
	// under an enabled cascade (which engines ran and why); nil otherwise.
	// On a short-circuited detection, the Scores dimensions flagged by
	// Cascade.Imputed hold benign fill means, and the corresponding
	// Transcriptions entries are empty.
	Cascade *CascadeDecision
}

// EngineEvidence is one engine's contribution to a verdict explanation.
type EngineEvidence struct {
	// Engine is the engine's name (DS0, DS1, ...).
	Engine string
	// Transcription is what the engine heard.
	Transcription string
	// Phonetic is the similarity method's encoding of the transcription
	// (identity for non-PE methods).
	Phonetic string
	// Similarity is the Jaro-Winkler score of this engine's encoding
	// against the target's — exactly the corresponding Detection.Scores
	// entry. It is 1 for the target itself (self-similarity).
	Similarity float64
}

// Explanation makes a verdict auditable: which auxiliary disagreed with
// the target and by how much, in the representation the classifier
// actually saw. The similarity values are the Detection's Scores verbatim
// — no recomputation — so explanation and verdict can never drift apart.
type Explanation struct {
	// Method names the similarity method (PE_JaroWinkler by default).
	Method string
	// Target is the target engine's evidence (Similarity is 1).
	Target EngineEvidence
	// Auxiliaries is aligned with Detection.Scores.
	Auxiliaries []EngineEvidence
	// MinSimilarity is the smallest auxiliary score — the strongest
	// disagreement, the paper's transferable-AE early-warning signal.
	MinSimilarity float64
	// MinEngine names the auxiliary holding MinSimilarity.
	MinEngine string
}

// DetectionTiming mirrors the paper's §V-I overhead decomposition.
type DetectionTiming = detector.Timing

// toDetection converts a detector decision into the public form.
func (s *System) toDetection(dec detector.Decision) *Detection {
	out := &Detection{
		Adversarial:    dec.Adversarial,
		Scores:         dec.Scores,
		Transcriptions: map[string]string{s.det.Target.Name(): dec.Transcriptions.Target},
		Timing:         dec.Timing,
	}
	for i, aux := range s.det.Auxiliaries {
		out.Transcriptions[aux.Name()] = dec.Transcriptions.Aux[i]
	}
	out.Cascade = fromCascadeInfo(dec.Cascade)
	return out
}

// DetectCtx classifies the clip as benign or adversarial. The System must
// have a trained classifier (Build's default). A cancelled or expired
// context aborts the remaining per-engine work and returns the context's
// error; the mvpearsd serving layer enforces per-request deadlines this
// way. The context also carries observability state: an obs.Trace
// collects per-stage spans, and obs.WithExplain makes the returned
// Detection carry its Explanation.
func (s *System) DetectCtx(ctx context.Context, clip *Clip) (*Detection, error) {
	dec, err := s.det.Detect(ctx, clip)
	if err != nil {
		return nil, err
	}
	det := s.toDetection(dec)
	if obs.ExplainRequested(ctx) {
		det.Explanation = s.Explain(det)
	}
	return det, nil
}

// Explain derives the verdict explanation of a Detection: the phonetic
// encoding of every transcription plus the per-auxiliary similarity
// scores, copied bit-for-bit from det.Scores. It works on any Detection
// this System produced (including ones served from a verdict cache) since
// the encoding is a deterministic function of the transcriptions.
func (s *System) Explain(det *Detection) *Explanation {
	targetName := s.det.Target.Name()
	exp := &Explanation{
		Method: s.det.MethodName(),
		Target: EngineEvidence{
			Engine:        targetName,
			Transcription: det.Transcriptions[targetName],
			Phonetic:      s.det.PhoneticEncode(det.Transcriptions[targetName]),
			Similarity:    1,
		},
		Auxiliaries:   make([]EngineEvidence, len(s.det.Auxiliaries)),
		MinSimilarity: 1,
	}
	for i, aux := range s.det.Auxiliaries {
		name := aux.Name()
		score := 0.0
		if i < len(det.Scores) {
			score = det.Scores[i]
		}
		exp.Auxiliaries[i] = EngineEvidence{
			Engine:        name,
			Transcription: det.Transcriptions[name],
			Phonetic:      s.det.PhoneticEncode(det.Transcriptions[name]),
			Similarity:    score,
		}
		if score <= exp.MinSimilarity {
			exp.MinSimilarity = score
			exp.MinEngine = name
		}
	}
	return exp
}

// LoadClip reads a 16-bit mono PCM WAV file and resamples it to the
// engines' rate when it differs.
func (s *System) LoadClip(path string) (*Clip, error) {
	clip, err := audio.LoadWAV(path)
	if err != nil || clip.SampleRate == s.engines.SampleRate {
		return clip, err
	}
	return clip.Resample(s.engines.SampleRate)
}

// Transcribe runs the target engine (DS0) on the clip.
func (s *System) Transcribe(clip *Clip) (string, error) {
	return s.det.Target.Transcribe(clip)
}

// TranscribeAll runs every configured engine and returns name ->
// transcription. Engines run concurrently and share a per-clip feature
// cache when their MFCC front ends match. It is an offline convenience
// whose signature predates context threading, so it always runs to
// completion.
func (s *System) TranscribeAll(clip *Clip) (map[string]string, error) {
	tr, err := s.det.TranscribeAll(context.TODO(), clip)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(s.det.Auxiliaries)+1)
	out[s.det.Target.Name()] = tr.Target
	for i, aux := range s.det.Auxiliaries {
		out[aux.Name()] = tr.Aux[i]
	}
	return out, nil
}

// DetectBatchCtx classifies every clip as DetectCtx would, on a bounded
// worker pool (GOMAXPROCS-sized), returning detections in input order. It
// fails fast: the first per-clip error, or a cancelled context, aborts the
// whole batch. Like DetectCtx it honors obs.WithExplain, populating every
// detection's Explanation.
func (s *System) DetectBatchCtx(ctx context.Context, clips []*Clip) ([]*Detection, error) {
	decs, err := s.det.BatchDetect(ctx, clips)
	if err != nil {
		return nil, err
	}
	explain := obs.ExplainRequested(ctx)
	out := make([]*Detection, len(decs))
	for i, dec := range decs {
		out[i] = s.toDetection(dec)
		if explain {
			out[i].Explanation = s.Explain(out[i])
		}
	}
	return out, nil
}

// FeatureVector returns the similarity-score vector of the clip without
// classifying it.
func (s *System) FeatureVector(ctx context.Context, clip *Clip) ([]float64, error) {
	return s.det.FeatureVector(ctx, clip)
}

// SampleRate returns the audio sample rate the engines expect.
func (s *System) SampleRate() int { return s.engines.SampleRate }

// AuxiliaryNames lists the configured auxiliary engines in order.
func (s *System) AuxiliaryNames() []string {
	out := make([]string, len(s.det.Auxiliaries))
	for i, aux := range s.det.Auxiliaries {
		out[i] = aux.Name()
	}
	return out
}

// DriftReference derives the calibration-time detection-quality baseline
// the serving layer's drift monitor compares live traffic against: the
// per-auxiliary benign similarity-score distributions, the per-sample
// minimum-score distribution, and the expected adversarial base rate
// (zero — production traffic is presumed benign; a sustained adversarial
// rate is itself the anomaly). The baseline is computed from the benign
// score pools, which Save persists with the model artifact, so every
// replica loading the same artifact derives bit-identical references.
// Nil when the detector is untrained.
func (s *System) DriftReference() *drift.Reference {
	if s.pools == nil || len(s.pools.Benign) == 0 {
		return nil
	}
	ref := &drift.Reference{Version: 1}
	aux := s.AuxiliaryNames()
	n := len(s.pools.Benign[0])
	for j, col := range s.pools.Benign {
		if j < len(aux) {
			ref.AddDist("engine:"+aux[j], col)
		}
		if len(col) < n {
			n = len(col)
		}
	}
	if n > 0 {
		mins := make([]float64, n)
		for i := 0; i < n; i++ {
			min := 1.0
			for j := range s.pools.Benign {
				if s.pools.Benign[j][i] < min {
					min = s.pools.Benign[j][i]
				}
			}
			mins[i] = min
		}
		ref.AddDist("min_score", mins)
	}
	ref.AddRate("adversarial_rate", 0)
	return ref
}

// AEResult describes a crafted adversarial example.
type AEResult struct {
	AE         *Clip
	Success    bool
	HostText   string  // what the target transcribed for the host
	TargetText string  // the attacker's command
	FinalText  string  // what the target transcribes for the AE
	Similarity float64 // waveform similarity AE vs host
	SNRdB      float64
	Iterations int
}

func fromAttackResult(r *attack.Result) *AEResult {
	return &AEResult{
		AE:         r.AE,
		Success:    r.Success,
		HostText:   r.HostText,
		TargetText: r.TargetText,
		FinalText:  r.FinalText,
		Similarity: r.Similarity,
		SNRdB:      r.SNRdB,
		Iterations: r.Iterations,
	}
}

// CraftWhiteBoxAE runs the gradient (Carlini&Wagner-style) attack against
// the target engine: it perturbs host so DS0 transcribes command.
func (s *System) CraftWhiteBoxAE(host *Clip, command string) (*AEResult, error) {
	res, err := attack.WhiteBox(s.engines.DS0, host, command, attack.DefaultWhiteBoxConfig())
	if err != nil {
		return nil, err
	}
	return fromAttackResult(res), nil
}

// CraftBlackBoxAE runs the query-only genetic attack against the target
// engine. The command must be at most two words (the method's documented
// limit, matching the paper).
func (s *System) CraftBlackBoxAE(host *Clip, command string, seed int64) (*AEResult, error) {
	cfg := attack.DefaultBlackBoxConfig()
	cfg.Seed = seed
	res, err := attack.BlackBox(s.engines.DS0, host, command, cfg)
	if err != nil {
		return nil, err
	}
	return fromAttackResult(res), nil
}

// CraftNonTargetedAE degrades the clip with -6 dB noise until the target's
// transcription has over 80% word error rate (the paper's §V-J recipe).
func (s *System) CraftNonTargetedAE(clip *Clip, seed int64) (*Clip, bool, error) {
	cfg := attack.DefaultNonTargetedConfig()
	cfg.Seed = seed
	res, err := attack.NonTargeted(s.engines.DS0, clip, cfg)
	if err != nil {
		return nil, false, err
	}
	return res.AE, res.Success, nil
}

// ThresholdDetector is a classifier-free detector calibrated on benign
// audio only: an input whose similarity score (against one auxiliary)
// falls below the threshold is adversarial.
type ThresholdDetector struct {
	inner *detector.ThresholdDetector
}

// Threshold returns the calibrated similarity threshold.
func (t *ThresholdDetector) Threshold() float64 { return t.inner.Threshold }

// Detect classifies the clip by threshold.
func (t *ThresholdDetector) Detect(clip *Clip) (bool, float64, error) {
	dec, err := t.inner.Detect(clip)
	if err != nil {
		return false, 0, err
	}
	return dec.Adversarial, dec.Scores[0], nil
}

// CalibrateThreshold builds a single-auxiliary threshold detector using
// benign clips only, choosing the threshold so at most maxFPR of them are
// flagged (the paper's §V-G unseen-attack detector).
func (s *System) CalibrateThreshold(aux EngineID, benign []*Clip, maxFPR float64) (*ThresholdDetector, error) {
	rec, err := s.engines.Get(aux)
	if err != nil {
		return nil, err
	}
	if aux == DS0 {
		return nil, fmt.Errorf("mvpears: the target engine cannot be its own auxiliary")
	}
	if len(benign) == 0 {
		return nil, fmt.Errorf("mvpears: calibration needs benign clips")
	}
	single, err := detector.New(s.engines.DS0, []asr.Recognizer{rec})
	if err != nil {
		return nil, err
	}
	samples := make([]dataset.Sample, len(benign))
	for i, clip := range benign {
		samples[i] = dataset.Sample{Clip: clip, Kind: dataset.KindBenign}
	}
	X, _, err := single.Features(samples)
	if err != nil {
		return nil, fmt.Errorf("mvpears: calibration: %w", err)
	}
	td, err := detector.CalibrateThreshold(single, X, maxFPR)
	if err != nil {
		return nil, err
	}
	return &ThresholdDetector{inner: td}, nil
}

// Classifier exposes the trained classifier (for ROC sweeps and
// inspection).
func (s *System) Classifier() classify.Classifier { return s.det.Classifier }

// EngineInfo summarizes one engine's architecture.
type EngineInfo = asr.EngineInfo

// DescribeEngines returns the architecture inventory of the trained
// engines — the diversity the MVP idea depends on.
func (s *System) DescribeEngines() []EngineInfo { return s.engines.Describe() }

// CraftAdaptiveTDAE runs the adaptive attack against temporal-dependency
// detection: the command is embedded only after splitFrac of the audio
// (0 < splitFrac < 1; 0.5 when out of range), so splicing the
// half-transcriptions matches the whole-audio transcription.
func (s *System) CraftAdaptiveTDAE(host *Clip, command string, splitFrac float64) (*AEResult, error) {
	res, err := attack.AdaptiveTD(s.engines.DS0, host, command, splitFrac, attack.DefaultWhiteBoxConfig())
	if err != nil {
		return nil, err
	}
	return fromAttackResult(res), nil
}
