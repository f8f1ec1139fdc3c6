package detector

import (
	"context"
	"fmt"

	"mvpears/internal/audio"
	"mvpears/internal/classify"
)

// ThresholdDetector is the paper's §V-G unseen-attack detector for
// single-auxiliary systems: it is calibrated on benign audio only (no AEs
// required) and flags an input as adversarial when its similarity score
// falls below a threshold chosen so the benign false-positive rate stays
// under a budget.
type ThresholdDetector struct {
	Detector  *Detector
	Threshold float64
}

// CalibrateThreshold picks the threshold from benign feature vectors so
// that at most maxFPR of them fall below it. The detector must have
// exactly one auxiliary.
func CalibrateThreshold(d *Detector, benignX [][]float64, maxFPR float64) (*ThresholdDetector, error) {
	if d == nil {
		return nil, fmt.Errorf("detector: nil detector")
	}
	if len(d.Auxiliaries) != 1 {
		return nil, fmt.Errorf("detector: threshold detection needs exactly 1 auxiliary, got %d", len(d.Auxiliaries))
	}
	scores := make([]float64, 0, len(benignX))
	for _, v := range benignX {
		if len(v) != 1 {
			return nil, fmt.Errorf("detector: threshold calibration needs 1-dimensional features")
		}
		scores = append(scores, v[0])
	}
	thr, err := classify.ThresholdForFPR(scores, maxFPR)
	if err != nil {
		return nil, err
	}
	return &ThresholdDetector{Detector: d, Threshold: thr}, nil
}

// Detect flags the clip as adversarial when its similarity score is below
// the threshold.
func (t *ThresholdDetector) Detect(clip *audio.Clip) (Decision, error) {
	tr, err := t.Detector.TranscribeAll(context.TODO(), clip)
	if err != nil {
		return Decision{}, err
	}
	scores := t.Detector.Scores(tr)
	return Decision{
		Adversarial:    scores[0] < t.Threshold,
		Scores:         scores,
		Transcriptions: tr,
	}, nil
}

// DetectScore applies the threshold to a precomputed score.
func (t *ThresholdDetector) DetectScore(score float64) bool {
	return score < t.Threshold
}
