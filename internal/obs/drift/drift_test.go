package drift

import (
	"math"
	"testing"
)

// benignScores synthesizes a deterministic benign-looking score sample
// concentrated near 1 (where MVP-EARS's benign similarity mass sits).
func benignScores(n int, seed uint64) []float64 {
	out := make([]float64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = 0.85 + 0.15*float64(x>>40)/float64(1<<24)
	}
	return out
}

// shiftedScores synthesizes a drifted sample concentrated near 0.4.
func shiftedScores(n int, seed uint64) []float64 {
	out := make([]float64, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		out[i] = 0.3 + 0.2*float64(x>>40)/float64(1<<24)
	}
	return out
}

func TestSketchBasics(t *testing.T) {
	var s Sketch
	for _, v := range []float64{-1, 0, 0.5, 1, 2, math.NaN()} {
		s.Add(v)
	}
	if s.Total() != 6 {
		t.Fatalf("Total = %d, want 6", s.Total())
	}
	// Clamping: -1, 0 and NaN land in bin 0; 1 and 2 in the last bin.
	counts := s.Counts()
	if counts[0] != 3 || counts[SketchBins-1] != 2 {
		t.Errorf("clamped bins = first %d / last %d, want 3 / 2", counts[0], counts[SketchBins-1])
	}
}

func TestDistanceSeparatesShiftedFromBenign(t *testing.T) {
	ref := SketchOf(benignScores(512, 1))
	same := SketchOf(benignScores(512, 99))
	shifted := SketchOf(shiftedScores(512, 7))
	if d := distance(same, ref); d > 0.15 {
		t.Errorf("benign-vs-benign distance = %v, want small", d)
	}
	if d := distance(shifted, ref); d < 0.9 {
		t.Errorf("shifted-vs-benign distance = %v, want near 1", d)
	}
	if d := distance(&Sketch{}, ref); d != 0 {
		t.Errorf("empty sketch distance = %v, want 0", d)
	}
}

func TestMonitorDetectsDistributionShift(t *testing.T) {
	var fired []Verdict
	m := New(Config{
		WindowN: 128, MinSamples: 64, Threshold: 0.25, EvalEvery: 16,
		OnDrift: func(v Verdict) { fired = append(fired, v) },
	})
	ref := &Reference{Version: 1}
	ref.AddDist("engine:DS1", benignScores(512, 1))
	if err := m.SetReference(ref); err != nil {
		t.Fatalf("SetReference: %v", err)
	}

	// Benign replay: scores drawn from the calibration distribution stay
	// under threshold.
	for _, v := range benignScores(256, 42) {
		m.ObserveScore("engine:DS1", v)
	}
	for _, v := range m.Evaluate() {
		if v.Family == "engine:DS1" && v.Drifted {
			t.Fatalf("benign replay drifted: %+v", v)
		}
	}
	if len(fired) != 0 {
		t.Fatalf("benign replay fired %d drift events", len(fired))
	}

	// Shifted distribution: drives the score over threshold and fires
	// exactly one edge-triggered event.
	for _, v := range shiftedScores(256, 43) {
		m.ObserveScore("engine:DS1", v)
	}
	if !anyDrifted(m.Evaluate()) {
		t.Fatal("shifted distribution did not drift")
	}
	if len(fired) != 1 {
		t.Fatalf("drift fired %d events, want exactly 1 (edge-triggered)", len(fired))
	}
	if fired[0].Family != "engine:DS1" || fired[0].Score <= fired[0].Threshold {
		t.Errorf("drift event = %+v", fired[0])
	}

	// Staying drifted does not re-fire.
	for _, v := range shiftedScores(64, 44) {
		m.ObserveScore("engine:DS1", v)
	}
	m.Evaluate()
	if len(fired) != 1 {
		t.Fatalf("sustained drift re-fired (%d events)", len(fired))
	}
}

func TestMonitorRateFamily(t *testing.T) {
	m := New(Config{WindowN: 128, MinSamples: 32, Threshold: 0.25, EvalEvery: 8})
	ref := &Reference{Version: 1}
	ref.AddRate("adversarial_rate", 0)
	if err := m.SetReference(ref); err != nil {
		t.Fatalf("SetReference: %v", err)
	}
	// 10% adversarial: under the 0.25 band.
	for i := 0; i < 100; i++ {
		m.ObserveEvent("adversarial_rate", i%10 == 0)
	}
	if anyDrifted(m.Evaluate()) {
		t.Fatal("10% adversarial rate drifted against threshold 0.25")
	}
	// 60% adversarial: well over.
	for i := 0; i < 200; i++ {
		m.ObserveEvent("adversarial_rate", i%5 != 0)
	}
	if !anyDrifted(m.Evaluate()) {
		t.Fatal("60% adversarial rate did not drift")
	}
}

func TestMonitorNoReferenceNeverDrifts(t *testing.T) {
	m := New(Config{WindowN: 64, MinSamples: 16, Threshold: 0.1, EvalEvery: 4})
	for _, v := range shiftedScores(256, 5) {
		m.ObserveScore("engine:unknown", v)
	}
	for _, v := range m.Evaluate() {
		if v.Drifted || v.HasRef {
			t.Fatalf("family without reference drifted: %+v", v)
		}
	}
}

func TestMonitorMinSamplesSuppression(t *testing.T) {
	m := New(Config{WindowN: 512, MinSamples: 64, Threshold: 0.1, EvalEvery: 1})
	ref := &Reference{Version: 1}
	ref.AddDist("engine:DS1", benignScores(512, 1))
	if err := m.SetReference(ref); err != nil {
		t.Fatalf("SetReference: %v", err)
	}
	for _, v := range shiftedScores(32, 9) {
		m.ObserveScore("engine:DS1", v)
	}
	if anyDrifted(m.Evaluate()) {
		t.Fatal("drifted on 32 samples with MinSamples=64")
	}
}

// anyDrifted reports whether any family in vs is drifted.
func anyDrifted(vs []Verdict) bool {
	for _, v := range vs {
		if v.Drifted {
			return true
		}
	}
	return false
}

func TestReferenceValidate(t *testing.T) {
	bad := &Reference{Dists: []DistRef{{Family: "x", Counts: make([]uint64, 3)}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("wrong-bin-count reference validated")
	}
	if err := New(Config{}).SetReference(bad); err == nil {
		t.Fatal("SetReference accepted a broken reference")
	}
	if err := New(Config{}).SetReference(nil); err != nil {
		t.Fatalf("nil reference: %v", err)
	}
}

func TestMonitorDeterministic(t *testing.T) {
	run := func() []Verdict {
		m := New(Config{WindowN: 128, MinSamples: 32, Threshold: 0.2, EvalEvery: 8})
		ref := &Reference{Version: 1}
		ref.AddDist("engine:DS1", benignScores(300, 2))
		ref.AddRate("adversarial_rate", 0.05)
		if err := m.SetReference(ref); err != nil {
			t.Fatalf("SetReference: %v", err)
		}
		for i, v := range shiftedScores(200, 11) {
			m.ObserveScore("engine:DS1", v)
			m.ObserveEvent("adversarial_rate", i%3 == 0)
		}
		return m.Evaluate()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("verdict counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
