package server

import (
	"time"

	"mvpears"
)

// The wire schema of the detection API. cmd/mvpears `detect -json` emits
// the same types, so offline and online verdicts are machine-comparable.

// Verdict strings used on the wire.
const (
	VerdictBenign      = "benign"
	VerdictAdversarial = "adversarial"
)

// verdictOf is the wire string of a classification.
func verdictOf(adversarial bool) string {
	if adversarial {
		return VerdictAdversarial
	}
	return VerdictBenign
}

// TimingJSON decomposes one detection's cost in milliseconds, mirroring
// the paper's §V-I overhead split.
type TimingJSON struct {
	RecognitionMS float64 `json:"recognition_ms"`
	SimilarityMS  float64 `json:"similarity_ms"`
	ClassifyMS    float64 `json:"classify_ms"`
}

// DetectionJSON is one verdict: the classification, the per-auxiliary
// similarity scores (in auxiliary order), every engine's transcription,
// and the timing decomposition.
type DetectionJSON struct {
	Verdict        string            `json:"verdict"`
	Adversarial    bool              `json:"adversarial"`
	Scores         []float64         `json:"scores"`
	Auxiliaries    []string          `json:"auxiliaries"`
	Transcriptions map[string]string `json:"transcriptions"`
	Timing         TimingJSON        `json:"timing"`
	// Cached marks a verdict served without running a detection for this
	// request: a verdict-cache hit (local or on the owning replica), or a
	// result shared with a concurrent identical request via singleflight.
	// Timing then describes the original detection, not this request.
	Cached bool `json:"cached,omitempty"`
	// Remote marks a verdict answered by another replica of the cluster
	// tier (a remote cache hit, or a detection forwarded to the key's
	// owner).
	Remote bool `json:"remote,omitempty"`
	// Cascade reports how the cascade scheduler handled the detection —
	// which engines ran, which were skipped, and why. Absent when the
	// cascade is not enabled.
	Cascade *CascadeJSON `json:"cascade,omitempty"`
	// Explanation is present only when the request asked for it
	// (?explain=1 on /v1/detect, or mvpears detect -explain).
	Explanation *ExplanationJSON `json:"explanation,omitempty"`
}

// EngineEvidenceJSON is one engine's contribution to an explanation.
// Similarity is nil for the target engine (a self-comparison would always
// be 1) and the exact Scores entry for auxiliaries.
type EngineEvidenceJSON struct {
	Engine        string   `json:"engine"`
	Transcription string   `json:"transcription"`
	Phonetic      string   `json:"phonetic"`
	Similarity    *float64 `json:"similarity,omitempty"`
}

// ExplanationJSON is the wire form of a verdict explanation: the phonetic
// encodings the similarity method actually compared, the per-auxiliary
// score vector, and the strongest disagreement. It exposes nothing beyond
// what the plain /v1/detect response already returns (transcriptions and
// scores) plus a deterministic re-encoding of it, so it does not widen the
// attacker's oracle.
type ExplanationJSON struct {
	Method string `json:"method"`
	// Engines lists the target first, then the auxiliaries in score order.
	Engines       []EngineEvidenceJSON `json:"engines"`
	MinSimilarity float64              `json:"min_similarity"`
	MinEngine     string               `json:"min_engine"`
}

// NewExplanationJSON converts an explanation into its wire form.
func NewExplanationJSON(exp *mvpears.Explanation) *ExplanationJSON {
	if exp == nil {
		return nil
	}
	out := &ExplanationJSON{
		Method:        exp.Method,
		Engines:       make([]EngineEvidenceJSON, 0, len(exp.Auxiliaries)+1),
		MinSimilarity: exp.MinSimilarity,
		MinEngine:     exp.MinEngine,
	}
	out.Engines = append(out.Engines, EngineEvidenceJSON{
		Engine:        exp.Target.Engine,
		Transcription: exp.Target.Transcription,
		Phonetic:      exp.Target.Phonetic,
	})
	for _, aux := range exp.Auxiliaries {
		score := aux.Similarity
		out.Engines = append(out.Engines, EngineEvidenceJSON{
			Engine:        aux.Engine,
			Transcription: aux.Transcription,
			Phonetic:      aux.Phonetic,
			Similarity:    &score,
		})
	}
	return out
}

// CascadeJSON is the wire form of a cascade scheduling decision. On a
// short-circuit, Scores dimensions flagged by Imputed hold benign fill
// means (the calibration-set expectation) rather than measured
// similarities, and the skipped engines' transcriptions are empty.
type CascadeJSON struct {
	ShortCircuit bool `json:"short_circuit"`
	SampledFull  bool `json:"sampled_full,omitempty"`
	// EnginesRun / EnginesSkipped name auxiliary engines in evaluation
	// order (leader first); the target engine always runs.
	EnginesRun     []string `json:"engines_run"`
	EnginesSkipped []string `json:"engines_skipped,omitempty"`
	Margin         float64  `json:"margin"`
	FirstScore     float64  `json:"first_score"`
	Imputed        []bool   `json:"imputed,omitempty"`
	// Reason states in prose why this engine subset ran.
	Reason string `json:"reason"`
}

// NewCascadeJSON converts a cascade decision into its wire form.
func NewCascadeJSON(c *mvpears.CascadeDecision) *CascadeJSON {
	if c == nil {
		return nil
	}
	return &CascadeJSON{
		ShortCircuit:   c.ShortCircuit,
		SampledFull:    c.SampledFull,
		EnginesRun:     c.EnginesRun,
		EnginesSkipped: c.EnginesSkipped,
		Margin:         c.Margin,
		FirstScore:     c.FirstScore,
		Imputed:        c.Imputed,
		Reason:         cascadeReason(c),
	}
}

// cascadeReason renders the scheduling outcome as prose for ?explain=1
// consumers.
func cascadeReason(c *mvpears.CascadeDecision) string {
	switch {
	case c.SampledFull:
		return "deterministic 1-in-N monitoring sample: full ensemble ran regardless of scores"
	case c.ShortCircuit:
		return "leading auxiliary cleared its benign margin and the partial vector classified benign; remaining auxiliaries skipped"
	case c.FirstScore < c.Margin:
		return "leading auxiliary scored below its benign margin; full ensemble ran"
	default:
		return "partial similarity vector did not classify confidently benign; full ensemble ran"
	}
}

// FileDetectionJSON is a verdict tagged with the file (or multipart part)
// it belongs to.
type FileDetectionJSON struct {
	File string `json:"file"`
	DetectionJSON
}

// BatchResponseJSON is the body of POST /v1/detect/batch.
type BatchResponseJSON struct {
	Results []FileDetectionJSON `json:"results"`
}

// ErrorJSON is the body of every non-2xx API response. RequestID repeats
// the X-Request-ID response header so client-side logs can be joined with
// the server's even when only bodies are captured.
type ErrorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// NewDetectionJSON converts a detection into its wire form. auxiliaries
// is the system's auxiliary-name list, aligned with det.Scores.
func NewDetectionJSON(det *mvpears.Detection, auxiliaries []string) DetectionJSON {
	return DetectionJSON{
		Verdict:        verdictOf(det.Adversarial),
		Adversarial:    det.Adversarial,
		Scores:         det.Scores,
		Auxiliaries:    auxiliaries,
		Transcriptions: det.Transcriptions,
		Timing: TimingJSON{
			RecognitionMS: ms(det.Timing.Recognition),
			SimilarityMS:  ms(det.Timing.Similarity),
			ClassifyMS:    ms(det.Timing.Classify),
		},
		Cascade: NewCascadeJSON(det.Cascade),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
