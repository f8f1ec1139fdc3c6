package detector

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/obs"
)

// Cascade scheduling: make the miss path pay only for the confidence it
// needs. The detector first runs the target plus one leading auxiliary,
// and if that single similarity score already clears the leader's
// calibrated benign-confidence margin AND the partial vector (missing
// dimensions imputed with benign means) classifies benign, the remaining
// auxiliaries are skipped. Otherwise — any adversarial lean at all — the
// full ensemble runs.
//
// Which auxiliary leads is decided once, in EnableCascade, by expected
// work: for every auxiliary j whose margin is reachable, p_j is the share
// of benign calibration rows that would short-circuit with j leading (the
// runtime test, replayed on the training features) and w_j its static
// work weight (parameters read per frame); the leader minimises
// w_j + (1-p_j)·Σ_{k≠j} w_k. No clock is consulted, so a cascaded verdict
// is a pure function of (artifact, clip, flags): two boots or two
// replicas of one artifact lead with the same engine, apply the same
// margin and impute the same dimensions.
//
// Why checking once is enough: the short-circuit condition is
// min(observed scores) >= margin, and the running minimum over a prefix
// is monotone non-increasing as engines are added. If the leader's score
// fails the margin, every longer prefix fails it too, so the general
// "check after each auxiliary" loop collapses to exactly two phases:
// {target, leader} then {everything else}. One check, no wasted
// intermediate classifications.
//
// What keeps a short-circuit from flipping a verdict: every auxiliary's
// margin is calibrated strictly above that auxiliary's score on every
// calibration sample the *full* classifier flags adversarial. A clip
// resembling any known adversarial vector therefore fails the margin and
// takes the full path, reproducing the full ensemble's verdict bit for
// bit — whichever auxiliary leads, since the construction is per engine.
// The partial prediction is a second, independent gate: even above the
// margin, a partial vector the classifier dislikes falls through to the
// full run. The guarantee is over the calibration set: a never-seen clip
// can clear both gates and still be flagged on the full vector (measured
// and bounded in DESIGN §12).
//
// A deterministic 1-in-N sample of requests bypasses the cascade and runs
// the full ensemble regardless, so the classifier's input distribution
// stays monitored in production (observable via the sampled-full-run
// counter in /metrics).

// CascadeConfig configures the scheduler.
type CascadeConfig struct {
	// Margin is the benign-confidence margin a partial similarity vector
	// must clear to short-circuit. 0 means auto-calibrate from the
	// training features; values > 1 disable short-circuiting (similarity
	// scores live in [0, 1]), making the cascade a no-op.
	Margin float64
	// SampleEvery runs the full ensemble on every Nth request regardless
	// of the margin (deterministic, counter-based). 0 disables sampling.
	SampleEvery int
	// MarginSlack is added to the calibrated margin (auto-calibration
	// only) as head room against float jitter between calibration and
	// serving. Defaults to 0.02 when zero.
	MarginSlack float64
}

// LeaderCandidate is one auxiliary's line in the leader election: what
// EnableCascade computed for it and therefore why it does or does not
// lead.
type LeaderCandidate struct {
	Engine string
	// Margin is the engine's no-flip margin; above 1 it is unreachable
	// and the engine cannot lead.
	Margin float64
	// ShortCircuitShare is p: the share of benign calibration rows that
	// short-circuit with this engine leading (0 when it cannot lead).
	ShortCircuitShare float64
	// Weight is the static work weight w: parameters read per frame
	// (the engine's Parameters method; 1 for a recognizer without one).
	Weight int
	// ExpectedCost is w + (1-p)·Σ w_others, in the unit of Weight.
	ExpectedCost float64
}

// Cascade is the runtime state of the scheduler, attached to a Detector
// by EnableCascade. Safe for concurrent use: every field is read-only
// after construction except the atomic sampling counter.
type Cascade struct {
	cfg        CascadeConfig
	order      []int             // evaluation order: the leader, then configured order
	margin     float64           // the leader's
	candidates []LeaderCandidate // index = auxiliary index
	fill       *classify.PartialFill
	counter    atomic.Uint64
}

// Margin returns the leader's no-flip margin, the one every request is
// checked against.
func (c *Cascade) Margin() float64 { return c.margin }

// Order returns the auxiliary evaluation order (indices into
// Detector.Auxiliaries): the leader, then the rest in configured order.
func (c *Cascade) Order() []int { return append([]int(nil), c.order...) }

// SampleEvery returns the configured full-ensemble sampling period.
func (c *Cascade) SampleEvery() int { return c.cfg.SampleEvery }

// Candidates returns the leader election's table, one row per auxiliary
// in configured order.
func (c *Cascade) Candidates() []LeaderCandidate {
	return append([]LeaderCandidate(nil), c.candidates...)
}

// CascadeInfo reports, for one decision, which engines ran and why. It
// feeds the ?explain=1 surface and the cascade metrics.
type CascadeInfo struct {
	// Enabled is true when the decision went through the scheduler: every
	// Detect and BatchDetect call while a cascade is attached. Without one,
	// and for training features, the Decision carries no CascadeInfo.
	Enabled bool
	// ShortCircuit is true when auxiliaries were skipped.
	ShortCircuit bool
	// SampledFull is true when this request was a deterministic 1-in-N
	// monitoring run of the full ensemble.
	SampledFull bool
	// EnginesRun / EnginesSkipped name the auxiliary engines that did and
	// did not transcribe the clip (the target always runs).
	EnginesRun     []string
	EnginesSkipped []string
	// Margin is the benign-confidence margin in effect; FirstScore is the
	// leading auxiliary's similarity score the margin was checked
	// against (only meaningful when Enabled and not SampledFull).
	Margin     float64
	FirstScore float64
	// Imputed marks the score dimensions (in configured auxiliary order)
	// that were filled with benign means rather than measured.
	Imputed []bool
}

// EnableCascade attaches a cascade scheduler to the detector. benignX and
// aeX are the classifier's training features (configured auxiliary
// order); they supply the benign fill means for partial vectors, the
// margin auto-calibration set and the short-circuit shares the leader is
// elected on. The classifier must already be trained.
func (d *Detector) EnableCascade(cfg CascadeConfig, benignX, aeX [][]float64) error {
	if d.Classifier == nil {
		return fmt.Errorf("detector: cascade needs a trained classifier")
	}
	if len(benignX) == 0 {
		return fmt.Errorf("detector: cascade needs benign training features")
	}
	if cfg.SampleEvery < 0 {
		return fmt.Errorf("detector: negative cascade sampling period %d", cfg.SampleEvery)
	}
	//lint:allow floateq 0 is the unset-option sentinel, assigned literally and never computed
	if cfg.MarginSlack == 0 {
		cfg.MarginSlack = 0.02
	}
	fill, err := classify.FitPartialFill(benignX)
	if err != nil {
		return err
	}
	n := len(d.Auxiliaries)
	var margins []float64
	//lint:allow floateq 0 is the unset-option sentinel, assigned literally and never computed
	if cfg.Margin != 0 {
		margins = make([]float64, n)
		for j := range margins {
			margins[j] = cfg.Margin
		}
	} else if margins, err = d.calibrateMargins(benignX, aeX, cfg.MarginSlack); err != nil {
		return err
	}
	candidates, leader, err := d.electLeader(margins, fill, benignX)
	if err != nil {
		return err
	}
	order := make([]int, 0, n)
	order = append(order, leader)
	for i := 0; i < n; i++ {
		if i != leader {
			order = append(order, i)
		}
	}
	d.Cascade = &Cascade{cfg: cfg, order: order, margin: margins[leader], candidates: candidates, fill: fill}
	return nil
}

// DisableCascade detaches the scheduler; detection reverts to the full
// ensemble.
func (d *Detector) DisableCascade() { d.Cascade = nil }

// electLeader fills in the election table and returns the auxiliary with
// the lowest expected cost among those whose margin is reachable
// (similarity scores live in [0, 1], so an engine on which some
// classifier-flagged calibration vector scores ~1.0 has a margin above 1
// and can never short-circuit safely). Ties resolve to configured order.
// With no reachable margin the first auxiliary leads a cascade that
// always runs the full ensemble — safe, just not fast.
func (d *Detector) electLeader(margins []float64, fill *classify.PartialFill, benignX [][]float64) ([]LeaderCandidate, int, error) {
	n := len(d.Auxiliaries)
	candidates := make([]LeaderCandidate, n)
	total := 0
	for j, a := range d.Auxiliaries {
		w := 1 // a recognizer that cannot say weighs the same as any other
		if pc, ok := a.(interface{ Parameters() int }); ok {
			w = pc.Parameters()
		}
		candidates[j] = LeaderCandidate{Engine: a.Name(), Margin: margins[j], Weight: w}
		total += w
	}
	observed := make([]float64, n)
	have := make([]bool, n)
	leader := -1
	for j := range candidates {
		c := &candidates[j]
		if c.Margin <= 1 {
			hits := 0
			have[j] = true
			for _, row := range benignX {
				if len(row) < n {
					return nil, 0, fmt.Errorf("detector: feature width %d for %d auxiliaries", len(row), n)
				}
				if row[j] < c.Margin {
					continue
				}
				observed[j] = row[j]
				pred, _, err := classify.PredictPartial(d.Classifier, fill, observed, have)
				if err != nil {
					return nil, 0, fmt.Errorf("detector: leader election: %w", err)
				}
				if pred == 0 {
					hits++
				}
			}
			have[j] = false
			c.ShortCircuitShare = float64(hits) / float64(len(benignX))
		}
		c.ExpectedCost = float64(c.Weight) + (1-c.ShortCircuitShare)*float64(total-c.Weight)
		if c.Margin <= 1 && (leader == -1 || c.ExpectedCost < candidates[leader].ExpectedCost) {
			leader = j
		}
	}
	if leader == -1 {
		leader = 0
	}
	return candidates, leader, nil
}

// calibrateMargins computes, for every auxiliary dimension, the smallest
// safe margin: strictly above that dimension's score on every calibration
// vector the full classifier flags adversarial, plus slack. A margin
// above 1 (possible when adversarial training vectors score high on that
// auxiliary) means the dimension can never short-circuit — safe, just not
// fast — and electLeader passes it over.
func (d *Detector) calibrateMargins(benignX, aeX [][]float64, slack float64) ([]float64, error) {
	n := len(d.Auxiliaries)
	maxAdv := make([]float64, n)
	seen := false
	for _, pool := range [][][]float64{benignX, aeX} {
		for _, row := range pool {
			if len(row) < n {
				return nil, fmt.Errorf("detector: feature width %d for %d auxiliaries", len(row), n)
			}
			pred, err := d.Classifier.Predict(row)
			if err != nil {
				return nil, fmt.Errorf("detector: margin calibration: %w", err)
			}
			if pred == 1 {
				seen = true
				for j := 0; j < n; j++ {
					if row[j] > maxAdv[j] {
						maxAdv[j] = row[j]
					}
				}
			}
		}
	}
	margins := make([]float64, n)
	for j := range margins {
		if !seen {
			// The classifier flags nothing in the calibration set; any
			// margin is no-flip-safe. Use the most permissive safe value.
			margins[j] = slack
			continue
		}
		margins[j] = maxAdv[j] + slack
	}
	return margins, nil
}

// detectCascade is the scheduled form of detect. It preserves the stage
// timing decomposition; trace spans are recorded per engine by
// asr.TranscribeInto and per stage here, exactly like the full path.
func (d *Detector) detectCascade(ctx context.Context, clip *audio.Clip, parallel bool) (Decision, error) {
	var timing Timing
	c := d.Cascade
	trace := obs.TraceFrom(ctx)
	n := len(d.Auxiliaries)
	first := c.order[0]
	info := &CascadeInfo{Enabled: true, Margin: c.margin}

	// Deterministic 1-in-N monitoring: every SampleEvery-th request runs
	// the full ensemble through the plain path so the classifier's input
	// distribution stays observable.
	if c.cfg.SampleEvery > 0 && c.counter.Add(1)%uint64(c.cfg.SampleEvery) == 0 {
		dec, err := d.detectFull(ctx, clip, parallel)
		if err == nil {
			info.SampledFull = true
			info.EnginesRun = auxNames(d.Auxiliaries, c.order)
			info.Imputed = make([]bool, n)
			dec.Cascade = info
		}
		return dec, err
	}

	// One feature cache spans both phases, so a front end extracted for
	// the target or the leader is never redone in phase two.
	cache := asr.GetFeatureCache(clip.Samples)
	defer asr.PutFeatureCache(cache)

	texts := make([]string, n+1) // index 0 = target, i+1 = auxiliary i

	// Phase one: target + leader.
	start := time.Now()
	phase1 := []asr.Recognizer{d.Target, d.Auxiliaries[first]}
	p1out := make([]string, 2)
	if err := asr.TranscribeInto(ctx, phase1, clip, cache, parallel, p1out); err != nil {
		return Decision{}, fmt.Errorf("detector: %w", err)
	}
	texts[0] = p1out[0]
	texts[first+1] = p1out[1]
	timing.Recognition = time.Since(start)

	simStart := time.Now()
	firstScore := d.Method.Compare(texts[0], texts[first+1])
	timing.Similarity = time.Since(simStart)
	info.FirstScore = firstScore

	if firstScore >= c.margin {
		// Margin cleared: classify the partial vector (benign means in
		// the unobserved dimensions). Only a benign prediction may
		// short-circuit; any adversarial lean runs everything.
		observed := make([]float64, n)
		have := make([]bool, n)
		observed[first], have[first] = firstScore, true
		clsStart := time.Now()
		pred, full, err := classify.PredictPartial(d.Classifier, c.fill, observed, have)
		if err != nil {
			return Decision{}, fmt.Errorf("detector: partial classification: %w", err)
		}
		timing.Classify = time.Since(clsStart)
		if pred == 0 {
			trace.Record(obs.StageTranscribe, "", start)
			trace.Record(obs.StageSimilarity, "", simStart)
			trace.Record(obs.StageClassify, "", clsStart)
			info.ShortCircuit = true
			info.EnginesRun = []string{d.Auxiliaries[first].Name()}
			info.Imputed = make([]bool, n)
			for i := range info.Imputed {
				info.Imputed[i] = !have[i]
				if i != first {
					info.EnginesSkipped = append(info.EnginesSkipped, d.Auxiliaries[i].Name())
				}
			}
			tr := Transcriptions{Target: texts[0], Aux: texts[1:]}
			return Decision{Adversarial: false, Scores: full, Transcriptions: tr, Cascade: info, Timing: timing}, nil
		}
	}

	// Phase two: every remaining auxiliary, then Decide's full-vector
	// classification (which encodes the target and leader again). The
	// running prefix minimum can only fall, so no further margin checks
	// are needed (see package comment).
	start2 := time.Now()
	rest := make([]asr.Recognizer, 0, n-1)
	restIdx := make([]int, 0, n-1)
	for _, i := range c.order {
		if i == first {
			continue
		}
		rest = append(rest, d.Auxiliaries[i])
		restIdx = append(restIdx, i)
	}
	p2out := make([]string, len(rest))
	if err := asr.TranscribeInto(ctx, rest, clip, cache, parallel, p2out); err != nil {
		return Decision{}, fmt.Errorf("detector: %w", err)
	}
	for k, i := range restIdx {
		texts[i+1] = p2out[k]
	}
	timing.Recognition += time.Since(start2)
	trace.Record(obs.StageTranscribe, "", start)

	dec, err := d.Decide(trace, Transcriptions{Target: texts[0], Aux: texts[1:]})
	if err != nil {
		return Decision{}, err
	}
	dec.Timing.Recognition = timing.Recognition
	dec.Timing.Similarity += timing.Similarity
	info.EnginesRun = auxNames(d.Auxiliaries, c.order)
	info.Imputed = make([]bool, n)
	dec.Cascade = info
	return dec, nil
}

// auxNames lists auxiliary names in evaluation order.
func auxNames(aux []asr.Recognizer, order []int) []string {
	names := make([]string, len(order))
	for k, i := range order {
		names[k] = aux[i].Name()
	}
	return names
}
