// Package drift watches the detector's own output quality. MVP-EARS's
// defense rests on the per-engine similarity-score distributions staying
// where they were calibrated (PAPER.md §V): a shift can mean an attack
// campaign, an environment change (new microphones, new codecs), or a
// degraded engine — all of which silently erode accuracy long before any
// latency metric moves.
//
// The monitor keeps rolling fixed-bin histogram sketches over the scores
// the serving layer observes and compares them, plus a few verdict rates,
// against calibration-time reference snapshots persisted with the model
// artifact. Divergence beyond a configured band raises per-family drift
// scores (exported as mvpears_drift_score gauges) and fires an
// edge-triggered event into the audit stream.
//
// Everything here is deterministic and clock-free by construction — fixed
// bins instead of adaptive quantile estimators, slices instead of map
// iteration, arithmetic only — so the package passes the mvpearslint
// purity analyzer and two replicas fed the same observations report the
// same drift scores.
package drift

import (
	"fmt"
	"sync"
)

// SketchBins is the fixed bin count of a Sketch over [0, 1]. 40 bins is
// 0.025 resolution: fine enough to see the benign similarity mass (which
// concentrates above 0.9) slide, coarse enough that a calibration corpus
// of a few hundred clips populates the reference meaningfully.
const SketchBins = 40

// Sketch is a fixed-bin streaming histogram over [0, 1] — the rolling
// window representation of one score distribution. The zero value is
// ready to use. Not safe for concurrent use; the Monitor serializes.
type Sketch struct {
	counts [SketchBins]uint64
	total  uint64
}

// Add records one observation, clamped into [0, 1].
func (s *Sketch) Add(v float64) {
	if !(v > 0) { // NaN and negatives land in the first bin
		v = 0
	} else if v > 1 {
		v = 1
	}
	i := int(v * SketchBins)
	if i >= SketchBins {
		i = SketchBins - 1
	}
	s.counts[i]++
	s.total++
}

// Total returns how many observations the sketch holds.
func (s *Sketch) Total() uint64 { return s.total }

// Counts returns a copy of the bin counts.
func (s *Sketch) Counts() []uint64 {
	out := make([]uint64, SketchBins)
	copy(out, s.counts[:])
	return out
}

// SketchOf builds a sketch from a score slice (reference construction).
func SketchOf(values []float64) *Sketch {
	s := &Sketch{}
	for _, v := range values {
		s.Add(v)
	}
	return s
}

// distance is the total-variation distance between two sketches viewed as
// probability distributions: 0 for identical shapes, 1 for disjoint
// support. Scale-free, bounded, and zero-safe — exactly what a drift
// score needs. Either side being empty scores 0 (nothing to compare).
func distance(a, b *Sketch) float64 {
	if a.total == 0 || b.total == 0 {
		return 0
	}
	var d float64
	for i := range a.counts {
		pa := float64(a.counts[i]) / float64(a.total)
		pb := float64(b.counts[i]) / float64(b.total)
		if pa > pb {
			d += pa - pb
		} else {
			d += pb - pa
		}
	}
	return d / 2
}

// Reference is a calibration-time snapshot of where the score
// distributions and verdict rates are supposed to sit. It is persisted
// with the model artifact (persist.go) so every replica serving a model
// compares live traffic against the same baseline. Slices, not maps: the
// JSON encoding is deterministic and applying a reference never iterates
// a map.
type Reference struct {
	Version int       `json:"version"`
	Dists   []DistRef `json:"dists"`
	Rates   []RateRef `json:"rates"`
}

// DistRef is one reference score distribution (a serialized Sketch).
type DistRef struct {
	Family string   `json:"family"`
	Counts []uint64 `json:"counts"`
}

// RateRef is one reference event rate (e.g. the adversarial base rate the
// calibration corpus implies).
type RateRef struct {
	Family string  `json:"family"`
	Rate   float64 `json:"rate"`
}

// AddDist appends a distribution family built from values.
func (r *Reference) AddDist(family string, values []float64) {
	r.Dists = append(r.Dists, DistRef{Family: family, Counts: SketchOf(values).Counts()})
}

// AddRate appends a rate family.
func (r *Reference) AddRate(family string, rate float64) {
	r.Rates = append(r.Rates, RateRef{Family: family, Rate: rate})
}

// Validate rejects structurally broken references (wrong bin counts).
func (r *Reference) Validate() error {
	for _, d := range r.Dists {
		if len(d.Counts) != SketchBins {
			return fmt.Errorf("drift: reference family %q has %d bins, want %d", d.Family, len(d.Counts), SketchBins)
		}
	}
	return nil
}

// Verdict is one family's drift state at the last evaluation.
type Verdict struct {
	// Family names what is being watched (engine:DS1, min_score,
	// adversarial_rate, short_circuit_rate, ...).
	Family string
	// Kind is "dist" for distribution families, "rate" for rate families.
	Kind string
	// Score is the divergence from the reference: total-variation distance
	// for distributions, absolute rate difference for rates. 0 when no
	// reference is known or too few samples accumulated.
	Score float64
	// Threshold is the configured drift band.
	Threshold float64
	// Samples is how many observations the rolling window held.
	Samples uint64
	// HasRef reports whether a calibration reference exists for the family.
	HasRef bool
	// Drifted reports Score > Threshold (with a reference and enough
	// samples).
	Drifted bool
}

// Config parameterizes a Monitor. Zero values get defaults.
type Config struct {
	// WindowN rotates a family's rolling window after this many
	// observations (default 512). Scoring merges the current and previous
	// windows, so the effective window is 1-2x WindowN.
	WindowN int
	// MinSamples suppresses scoring below this many merged samples
	// (default 64): a handful of requests is noise, not drift.
	MinSamples int
	// Threshold is the drift band: a family whose score exceeds it is
	// drifted (default 0.25 — for distributions, a quarter of the
	// probability mass moved).
	Threshold float64
	// EvalEvery re-evaluates all families after this many observations
	// (default 64). Evaluation is cheap (a few hundred float ops) but not
	// free, so it is amortized off the per-request path.
	EvalEvery int
	// OnDrift, when set, fires once per family each time it crosses from
	// clean to drifted (edge-triggered; the structured audit event hook).
	// Called without the monitor lock held.
	OnDrift func(Verdict)
}

// ApplyDefaults fills the zero fields with their defaults (New does this
// itself; callers that expose the knobs use it to show the real values).
func (c *Config) ApplyDefaults() {
	if c.WindowN <= 0 {
		c.WindowN = 512
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 64
	}
}

// family is one watched quantity's rolling state.
type family struct {
	name   string
	isRate bool

	// Distribution state: two-epoch rotating sketch windows.
	cur, prev Sketch
	ref       Sketch
	hasRef    bool

	// Rate state: two-epoch rotating hit counters.
	curHits, curN   uint64
	prevHits, prevN uint64
	refRate         float64
	hasRefRate      bool

	score   float64
	samples uint64
	drifted bool
}

// Monitor tracks every registered family and scores them against the
// reference. Safe for concurrent use.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	families  []*family // registration order; evaluation iterates this
	index     map[string]*family
	sinceEval int
}

// New builds a Monitor.
func New(cfg Config) *Monitor {
	cfg.ApplyDefaults()
	return &Monitor{cfg: cfg, index: make(map[string]*family)}
}

// SetReference installs (or replaces, on hot reload) the calibration
// baseline. Families named by the reference are created eagerly so their
// drift gauges exist before traffic arrives.
func (m *Monitor) SetReference(ref *Reference) error {
	if ref == nil {
		return nil
	}
	if err := ref.Validate(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range ref.Dists {
		f := m.family(d.Family, false)
		f.ref = Sketch{}
		for i, c := range d.Counts {
			f.ref.counts[i] = c
			f.ref.total += c
		}
		f.hasRef = f.ref.total > 0
	}
	for _, rr := range ref.Rates {
		f := m.family(rr.Family, true)
		f.refRate = rr.Rate
		f.hasRefRate = true
	}
	return nil
}

// family returns (creating if needed) the named family. Caller holds mu.
func (m *Monitor) family(name string, isRate bool) *family {
	if f, ok := m.index[name]; ok {
		return f
	}
	f := &family{name: name, isRate: isRate}
	m.families = append(m.families, f)
	m.index[name] = f
	return f
}

// ObserveScore feeds one score observation into a distribution family.
func (m *Monitor) ObserveScore(name string, v float64) {
	m.mu.Lock()
	f := m.family(name, false)
	f.cur.Add(v)
	if f.cur.total >= uint64(m.cfg.WindowN) {
		f.prev = f.cur
		f.cur = Sketch{}
	}
	fired := m.tickLocked()
	m.mu.Unlock()
	m.fire(fired)
}

// ObserveEvent feeds one boolean observation into a rate family.
func (m *Monitor) ObserveEvent(name string, hit bool) {
	m.mu.Lock()
	f := m.family(name, true)
	f.curN++
	if hit {
		f.curHits++
	}
	if f.curN >= uint64(m.cfg.WindowN) {
		f.prevHits, f.prevN = f.curHits, f.curN
		f.curHits, f.curN = 0, 0
	}
	fired := m.tickLocked()
	m.mu.Unlock()
	m.fire(fired)
}

// tickLocked counts one observation toward the evaluation cadence,
// evaluating when due. Returns the newly-drifted verdicts to fire.
func (m *Monitor) tickLocked() []Verdict {
	m.sinceEval++
	if m.sinceEval < m.cfg.EvalEvery {
		return nil
	}
	m.sinceEval = 0
	return m.evaluateLocked()
}

// evaluateLocked rescores every family. Returns verdicts for families
// that newly crossed into drift (the edge for OnDrift).
func (m *Monitor) evaluateLocked() []Verdict {
	var fired []Verdict
	for _, f := range m.families {
		wasDrifted := f.drifted
		f.score, f.samples = m.scoreFamily(f)
		hasRef := f.hasRef || f.hasRefRate
		f.drifted = hasRef && f.samples >= uint64(m.cfg.MinSamples) && f.score > m.cfg.Threshold
		if f.drifted && !wasDrifted && m.cfg.OnDrift != nil {
			fired = append(fired, m.verdictOf(f))
		}
	}
	return fired
}

// scoreFamily computes one family's divergence over its merged (current +
// previous) window.
func (m *Monitor) scoreFamily(f *family) (score float64, samples uint64) {
	if f.isRate {
		hits := f.curHits + f.prevHits
		n := f.curN + f.prevN
		if n == 0 || !f.hasRefRate {
			return 0, n
		}
		observed := float64(hits) / float64(n)
		d := observed - f.refRate
		if d < 0 {
			d = -d
		}
		return d, n
	}
	var merged Sketch
	for i := range merged.counts {
		merged.counts[i] = f.cur.counts[i] + f.prev.counts[i]
	}
	merged.total = f.cur.total + f.prev.total
	if !f.hasRef {
		return 0, merged.total
	}
	return distance(&merged, &f.ref), merged.total
}

func (m *Monitor) verdictOf(f *family) Verdict {
	kind := "dist"
	if f.isRate {
		kind = "rate"
	}
	return Verdict{
		Family:    f.name,
		Kind:      kind,
		Score:     f.score,
		Threshold: m.cfg.Threshold,
		Samples:   f.samples,
		HasRef:    f.hasRef || f.hasRefRate,
		Drifted:   f.drifted,
	}
}

// fire invokes OnDrift outside the lock (the sink may do I/O).
func (m *Monitor) fire(fired []Verdict) {
	for _, v := range fired {
		m.cfg.OnDrift(v)
	}
}

// Evaluate forces a rescore of every family and returns all verdicts in
// registration order (the gauge and /statusz face of the monitor).
func (m *Monitor) Evaluate() []Verdict {
	m.mu.Lock()
	fired := m.evaluateLocked()
	out := make([]Verdict, 0, len(m.families))
	for _, f := range m.families {
		out = append(out, m.verdictOf(f))
	}
	m.mu.Unlock()
	m.fire(fired)
	return out
}

// Verdicts returns the last-evaluated state of every family in
// registration order, without rescoring.
func (m *Monitor) Verdicts() []Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Verdict, 0, len(m.families))
	for _, f := range m.families {
		out = append(out, m.verdictOf(f))
	}
	return out
}
