package mvpears

import (
	"fmt"
	"strings"

	"mvpears/internal/detector"
)

// Serving-path acceleration: cascaded engine scheduling, a pure
// inference-time toggle. It derives its state from the trained model at
// enable time — deterministically, no clock involved — persists nothing,
// and leaves ModelFingerprint (and therefore verdict-cache keys)
// unchanged.

// CascadeDecision reports how the cascade scheduler handled one input:
// which auxiliary engines ran, which were skipped, and why.
type CascadeDecision struct {
	// ShortCircuit is true when the benign margin allowed skipping
	// auxiliaries; SampledFull when this was a deterministic 1-in-N
	// full-ensemble monitoring run.
	ShortCircuit bool
	SampledFull  bool
	// EnginesRun / EnginesSkipped name auxiliary engines in evaluation
	// order (leader first); the target always runs.
	EnginesRun     []string
	EnginesSkipped []string
	// Margin is the benign-confidence margin in effect and FirstScore the
	// leading auxiliary's similarity score it was checked against.
	Margin     float64
	FirstScore float64
	// Imputed marks Scores dimensions (configured auxiliary order) that
	// hold benign fill means instead of measured similarities.
	Imputed []bool
}

func fromCascadeInfo(info *detector.CascadeInfo) *CascadeDecision {
	if info == nil {
		return nil
	}
	return &CascadeDecision{
		ShortCircuit:   info.ShortCircuit,
		SampledFull:    info.SampledFull,
		EnginesRun:     info.EnginesRun,
		EnginesSkipped: info.EnginesSkipped,
		Margin:         info.Margin,
		FirstScore:     info.FirstScore,
		Imputed:        info.Imputed,
	}
}

// EnableQuantized and DisableQuantized are adapters for callers of the
// removed int8 path (`mvpearsd -quantized`, bench/loadgen): the float64
// blocked kernels are the fast path, so nothing is enabled, nothing falls
// back, and every verdict is unchanged.
func (s *System) EnableQuantized() (enabled, fellBack []EngineID, err error) {
	return nil, nil, nil
}

// DisableQuantized does nothing; see EnableQuantized.
func (s *System) DisableQuantized() {}

// EnableCascade attaches the cascade scheduler to the detector. margin 0
// auto-calibrates per auxiliary from the training features (the no-flip
// construction: strictly above that auxiliary's score on every training
// vector the classifier flags adversarial); margin > 1 disables
// short-circuits. sampleEvery runs the full ensemble on every Nth request
// for distribution monitoring (0 = never). The leading auxiliary is the
// one with the lowest expected work over the benign training features
// (see detector.EnableCascade), so equal artifacts and flags always yield
// the same scheduler.
func (s *System) EnableCascade(margin float64, sampleEvery int) error {
	if s.pools == nil {
		return fmt.Errorf("mvpears: cascade needs a trained detector (training features unavailable)")
	}
	cfg := detector.CascadeConfig{Margin: margin, SampleEvery: sampleEvery}
	benignX := columnsToRows(s.pools.Benign)
	aeX := columnsToRows(s.pools.AE)
	if err := s.det.EnableCascade(cfg, benignX, aeX); err != nil {
		return fmt.Errorf("mvpears: %w", err)
	}
	return nil
}

// DisableCascade detaches the scheduler; detection reverts to the
// unconditional full ensemble.
func (s *System) DisableCascade() { s.det.DisableCascade() }

// CascadeCandidate is one auxiliary's row in the leader election: its
// no-flip margin, the predicted short-circuit share p with it leading,
// its static work weight w and the expected cost w + (1-p)·Σ w_others.
type CascadeCandidate = detector.LeaderCandidate

// CascadeStatus describes the active scheduler, for the boot log and
// /statusz.
type CascadeStatus struct {
	Enabled     bool
	Margin      float64
	SampleEvery int
	// EngineOrder is the auxiliary evaluation order: the leader, then the
	// rest in configured order.
	EngineOrder []string
	// Candidates is the election table in configured auxiliary order.
	Candidates []CascadeCandidate
}

// Cascade returns the current scheduler status.
func (s *System) Cascade() CascadeStatus {
	c := s.det.Cascade
	if c == nil {
		return CascadeStatus{}
	}
	order := make([]string, 0, len(s.det.Auxiliaries))
	for _, i := range c.Order() {
		order = append(order, s.det.Auxiliaries[i].Name())
	}
	return CascadeStatus{
		Enabled:     true,
		Margin:      c.Margin(),
		SampleEvery: c.SampleEvery(),
		EngineOrder: order,
		Candidates:  c.Candidates(),
	}
}

// String renders the status as the one line the daemon logs at boot and
// prints on /statusz: the leader, then every auxiliary's election row.
func (st CascadeStatus) String() string {
	if !st.Enabled {
		return "cascade off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cascade on: leader %s at margin %.4f, full ensemble on 1 request in %d (0: never);",
		st.EngineOrder[0], st.Margin, st.SampleEvery)
	for _, c := range st.Candidates {
		fmt.Fprintf(&b, " %s[margin %.4f p %.3f weight %d expected cost %.0f]",
			c.Engine, c.Margin, c.ShortCircuitShare, c.Weight, c.ExpectedCost)
	}
	return b.String()
}
