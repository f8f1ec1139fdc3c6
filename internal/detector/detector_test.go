package detector

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/classify"
	"mvpears/internal/dataset"
	"mvpears/internal/similarity"
	"mvpears/internal/speech"
)

var (
	fixtureOnce sync.Once
	fixtureSet  *asr.EngineSet
	fixtureDS   *dataset.Dataset
	fixtureErr  error
)

func fixture(t *testing.T) (*asr.EngineSet, *dataset.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureSet, fixtureErr = asr.BuildEngines(asr.QuickTrainConfig())
		if fixtureErr != nil {
			return
		}
		fixtureDS, fixtureErr = dataset.Build(fixtureSet, dataset.TinyScale())
	})
	if fixtureErr != nil {
		t.Fatalf("building fixture: %v", fixtureErr)
	}
	return fixtureSet, fixtureDS
}

// transferred reports whether the AE's embedded command was transcribed
// verbatim by any auxiliary engine — i.e. the attack transferred past the
// target, defeating the multiversion premise.
func transferred(tr Transcriptions, command string) bool {
	want := speech.NormalizeText(command)
	for _, aux := range tr.Aux {
		if speech.NormalizeText(aux) == want {
			return true
		}
	}
	return false
}

func newDetector(t *testing.T, set *asr.EngineSet) *Detector {
	t.Helper()
	d, err := New(set.DS0, set.Auxiliaries())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidation(t *testing.T) {
	set, _ := fixture(t)
	if _, err := New(nil, set.Auxiliaries()); err == nil {
		t.Fatal("expected error for nil target")
	}
	if _, err := New(set.DS0, nil); err == nil {
		t.Fatal("expected error for no auxiliaries")
	}
	if _, err := New(set.DS0, []asr.Recognizer{nil}); err == nil {
		t.Fatal("expected error for nil auxiliary")
	}
	d := newDetector(t, set)
	if d.Method.Name != similarity.MethodPEJaroWinkler {
		t.Fatalf("default method %q", d.Method.Name)
	}
	if d.Classifier == nil || d.Classifier.Name() != "SVM" {
		t.Fatal("default classifier must be SVM")
	}
}

func TestFeatureVectorSeparatesBenignFromAE(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	// Benign samples: high scores everywhere.
	var benignMin float64 = 2
	for _, s := range ds.Benign[:6] {
		v, err := d.FeatureVector(context.Background(), s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 3 {
			t.Fatalf("feature width %d", len(v))
		}
		for _, score := range v {
			if score < benignMin {
				benignMin = score
			}
		}
	}
	// AE samples: at least one clearly low auxiliary score. AEs whose
	// command transferred to an auxiliary are excluded: a transferred AE
	// defeats the multiversion premise (the paper's §III-B measures
	// transfer at 0/3000 for real engines, but our tiny quick-scale
	// engines are far more similar to each other) and is undetectable by
	// construction.
	var aeMaxOfMin float64 = -1
	for _, s := range ds.AEs()[:4] {
		tr, err := d.TranscribeAll(context.Background(), s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if transferred(tr, s.Target) {
			continue
		}
		v := d.Scores(tr)
		min := v[0]
		for _, score := range v {
			if score < min {
				min = score
			}
		}
		if min > aeMaxOfMin {
			aeMaxOfMin = min
		}
	}
	if aeMaxOfMin >= benignMin {
		t.Fatalf("AE min-scores (max %.3f) not below benign scores (min %.3f)", aeMaxOfMin, benignMin)
	}
}

func TestSequentialAndParallelAgree(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	clip := ds.Benign[0].Clip
	par, err := d.FeatureVector(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	d.Sequential = true
	seq, err := d.FeatureVector(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("parallel %v != sequential %v", par, seq)
		}
	}
}

func TestTrainAndDetect(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	if err := d.TrainOnSamples(ds.All()); err != nil {
		t.Fatal(err)
	}
	// In-sample sanity: benign mostly pass, AEs mostly flagged.
	var benignWrong, aeWrong int
	for _, s := range ds.Benign {
		dec, err := d.Detect(context.Background(), s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Adversarial {
			benignWrong++
		}
	}
	// Transferred AEs (command heard verbatim by an auxiliary) are outside
	// the detector's threat model — MVP-EARS relies on AEs not fooling the
	// independent engines — so they do not count toward the miss rate.
	var aeTotal int
	for _, s := range ds.AEs() {
		dec, err := d.Detect(context.Background(), s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if transferred(dec.Transcriptions, s.Target) {
			continue
		}
		aeTotal++
		if !dec.Adversarial {
			aeWrong++
		}
	}
	if benignWrong > len(ds.Benign)/4 {
		t.Errorf("%d/%d benign flagged", benignWrong, len(ds.Benign))
	}
	if aeWrong > aeTotal/4 {
		t.Errorf("%d/%d AEs missed", aeWrong, aeTotal)
	}
}

func TestDetectTimedReportsStages(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	if err := d.TrainOnSamples(ds.All()); err != nil {
		t.Fatal(err)
	}
	dec, err := d.Detect(context.Background(), ds.Benign[0].Clip)
	if err != nil {
		t.Fatal(err)
	}
	timing := dec.Timing
	if timing.Recognition <= 0 {
		t.Fatal("recognition time not measured")
	}
	// The paper's §V-I: similarity and classification are orders of
	// magnitude cheaper than recognition.
	if timing.Similarity > timing.Recognition || timing.Classify > timing.Recognition {
		t.Fatalf("overhead inversion: %+v", timing)
	}
}

func TestDetectWithoutTraining(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	if _, err := d.Detect(context.Background(), ds.Benign[0].Clip); err == nil {
		t.Fatal("expected error for untrained classifier")
	}
	d.Classifier = nil
	if _, err := d.Detect(context.Background(), ds.Benign[0].Clip); err == nil {
		t.Fatal("expected error for nil classifier")
	}
	if err := d.Train(nil, nil); err == nil {
		t.Fatal("expected error training nil classifier")
	}
}

func TestScorePools(t *testing.T) {
	benignX := [][]float64{{0.9, 0.95, 0.92}, {0.91, 0.96, 0.93}}
	aeX := [][]float64{{0.3, 0.4, 0.5}}
	pools, err := ScorePools(benignX, aeX)
	if err != nil {
		t.Fatal(err)
	}
	if pools.NumAux != 3 {
		t.Fatalf("NumAux %d", pools.NumAux)
	}
	if len(pools.Benign[0]) != 2 || len(pools.AE[0]) != 1 {
		t.Fatalf("pool sizes %d/%d", len(pools.Benign[0]), len(pools.AE[0]))
	}
	if pools.Benign[1][0] != 0.95 {
		t.Fatalf("column transpose broken: %v", pools.Benign)
	}
	if _, err := ScorePools(nil, aeX); err == nil {
		t.Fatal("expected error for empty benign features")
	}
	if _, err := ScorePools([][]float64{{1, 2}, {1}}, aeX); err == nil {
		t.Fatal("expected error for ragged features")
	}
}

// syntheticPools builds score pools with the empirical shape of the
// system: benign ~0.95, AE ~0.45.
func syntheticPools(t *testing.T, numAux int, seed int64) *dataset.Pools {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	benign := make([][]float64, numAux)
	ae := make([][]float64, numAux)
	for j := 0; j < numAux; j++ {
		for i := 0; i < 300; i++ {
			benign[j] = append(benign[j], clamp01(0.95+rng.NormFloat64()*0.04))
			ae[j] = append(ae[j], clamp01(0.45+rng.NormFloat64()*0.12))
		}
	}
	pools, err := dataset.NewPools(benign, ae)
	if err != nil {
		t.Fatal(err)
	}
	return pools
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestProactiveTrainDetectsMAEVectors(t *testing.T) {
	set, _ := fixture(t)
	d := newDetector(t, set)
	pools := syntheticPools(t, 3, 11)
	cfg := ComprehensiveConfig()
	cfg.PerType = 400
	if err := ProactiveTrain(d, pools, cfg); err != nil {
		t.Fatal(err)
	}
	// A Type-4-shaped vector (fools DS1+GCS: high, high, low) must be
	// flagged; an all-high benign vector must pass.
	pred, err := d.Classifier.Predict([]float64{0.96, 0.94, 0.42})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 {
		t.Error("Type-4 MAE vector not detected")
	}
	// Type-1 (subset of Type-4): high, low, low.
	pred, err = d.Classifier.Predict([]float64{0.95, 0.40, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 {
		t.Error("Type-1 MAE vector not detected by the comprehensive system")
	}
	pred, err = d.Classifier.Predict([]float64{0.96, 0.95, 0.97})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0 {
		t.Error("benign vector flagged by the comprehensive system")
	}
}

func TestProactiveTrainValidation(t *testing.T) {
	set, _ := fixture(t)
	d := newDetector(t, set)
	pools := syntheticPools(t, 3, 12)
	if err := ProactiveTrain(nil, pools, ComprehensiveConfig()); err == nil {
		t.Fatal("expected error for nil detector")
	}
	if err := ProactiveTrain(d, nil, ComprehensiveConfig()); err == nil {
		t.Fatal("expected error for nil pools")
	}
	bad := ComprehensiveConfig()
	bad.Types = nil
	if err := ProactiveTrain(d, pools, bad); err == nil {
		t.Fatal("expected error for no types")
	}
	wrong := syntheticPools(t, 2, 13)
	if err := ProactiveTrain(d, wrong, ComprehensiveConfig()); err == nil {
		t.Fatal("expected error for auxiliary-count mismatch")
	}
}

func TestThresholdDetector(t *testing.T) {
	set, ds := fixture(t)
	single, err := New(set.DS0, []asr.Recognizer{set.AT})
	if err != nil {
		t.Fatal(err)
	}
	benignX, _, err := single.Features(ds.Benign)
	if err != nil {
		t.Fatal(err)
	}
	td, err := CalibrateThreshold(single, benignX, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if td.Threshold <= 0 || td.Threshold > 1 {
		t.Fatalf("threshold %g out of range", td.Threshold)
	}
	// Detect on raw scores: AEs sit below, benign above.
	var detected int
	aes := ds.AEs()
	for _, s := range aes {
		dec, err := td.Detect(s.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Adversarial {
			detected++
		}
	}
	if detected < len(aes)*3/4 {
		t.Errorf("threshold detector caught only %d/%d AEs", detected, len(aes))
	}
	if !td.DetectScore(td.Threshold-0.01) || td.DetectScore(td.Threshold+0.01) {
		t.Fatal("DetectScore boundary broken")
	}
}

func TestCalibrateThresholdValidation(t *testing.T) {
	set, _ := fixture(t)
	multi := newDetector(t, set)
	if _, err := CalibrateThreshold(multi, [][]float64{{0.9, 0.9, 0.9}}, 0.05); err == nil {
		t.Fatal("expected error for multi-auxiliary detector")
	}
	single, err := New(set.DS0, []asr.Recognizer{set.DS1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateThreshold(single, [][]float64{{0.9, 0.8}}, 0.05); err == nil {
		t.Fatal("expected error for wide features")
	}
	if _, err := CalibrateThreshold(nil, nil, 0.05); err == nil {
		t.Fatal("expected error for nil detector")
	}
}

func TestClassifierSwap(t *testing.T) {
	set, ds := fixture(t)
	for _, factory := range []classify.Factory{
		func() classify.Classifier { return classify.NewKNN() },
		func() classify.Classifier { return classify.NewRandomForest() },
	} {
		d := newDetector(t, set)
		d.Classifier = factory()
		if err := d.TrainOnSamples(ds.All()); err != nil {
			t.Fatalf("%s: %v", d.Classifier.Name(), err)
		}
		dec, err := d.Detect(context.Background(), ds.AEs()[0].Clip)
		if err != nil {
			t.Fatalf("%s: %v", d.Classifier.Name(), err)
		}
		if !dec.Adversarial {
			t.Logf("%s missed one AE (tolerated at tiny scale)", d.Classifier.Name())
		}
	}
}

// TestBatchDetectMatchesSequential asserts the concurrent batch path
// produces exactly the decisions and scores of one-at-a-time sequential
// detection (run under -race by `make race`).
func TestBatchDetectMatchesSequential(t *testing.T) {
	// Force real worker fan-out even on a single-core machine so the
	// -race run exercises the concurrent batch path.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	set, ds := fixture(t)
	d := newDetector(t, set)
	if err := d.TrainOnSamples(ds.All()); err != nil {
		t.Fatal(err)
	}
	samples := ds.All()
	clips := make([]*audio.Clip, len(samples))
	for i, s := range samples {
		clips[i] = s.Clip
	}
	batch, err := d.BatchDetect(context.Background(), clips)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(clips) {
		t.Fatalf("got %d decisions for %d clips", len(batch), len(clips))
	}
	seq := &Detector{
		Target:      d.Target,
		Auxiliaries: d.Auxiliaries,
		Method:      d.Method,
		Classifier:  d.Classifier,
		Sequential:  true,
	}
	for i, clip := range clips {
		want, err := seq.Detect(context.Background(), clip)
		if err != nil {
			t.Fatal(err)
		}
		got := batch[i]
		if got.Adversarial != want.Adversarial {
			t.Fatalf("clip %d: batch verdict %v != sequential %v", i, got.Adversarial, want.Adversarial)
		}
		if len(got.Scores) != len(want.Scores) {
			t.Fatalf("clip %d: score width %d != %d", i, len(got.Scores), len(want.Scores))
		}
		for j := range got.Scores {
			if got.Scores[j] != want.Scores[j] {
				t.Fatalf("clip %d score %d: batch %v != sequential %v", i, j, got.Scores[j], want.Scores[j])
			}
		}
		if got.Transcriptions.Target != want.Transcriptions.Target {
			t.Fatalf("clip %d: batch target %q != sequential %q", i, got.Transcriptions.Target, want.Transcriptions.Target)
		}
	}
}

// probeRecognizer counts how many Transcribe calls run at once across
// every probe sharing the counters.
type probeRecognizer struct {
	name string
	cur  *atomic.Int64
	max  *atomic.Int64
}

func (p *probeRecognizer) Name() string { return p.name }

func (p *probeRecognizer) Transcribe(clip *audio.Clip) (string, error) {
	n := p.cur.Add(1)
	for {
		m := p.max.Load()
		if n <= m || p.max.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond) // widen the overlap window
	p.cur.Add(-1)
	return "ok", nil
}

// TestBatchDoesNotNestParallelism asserts a batch runs ONE bounded worker
// pool for the whole call chain: engine transcriptions never exceed the
// pool size, i.e. per-clip engine fan-out is disabled once the batch pool
// itself saturates the CPUs (previously a batch ran pool-size ×
// engine-count goroutines at once).
func TestBatchDoesNotNestParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var cur, max atomic.Int64
	mk := func(name string) asr.Recognizer {
		return &probeRecognizer{name: name, cur: &cur, max: &max}
	}
	d, err := New(mk("t"), []asr.Recognizer{mk("a1"), mk("a2"), mk("a3")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train([][]float64{{1, 1, 1}}, [][]float64{{0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	clips := make([]*audio.Clip, 12)
	for i := range clips {
		clips[i] = audio.NewClip(8000, 160)
	}
	if _, err := d.BatchDetect(context.Background(), clips); err != nil {
		t.Fatal(err)
	}
	if got, workers := max.Load(), int64(4); got > workers {
		t.Fatalf("batch ran %d transcriptions at once, want at most the pool size %d", got, workers)
	}
}

// TestBatchDetectFailFast asserts the worker pool surfaces the
// lowest-indexed error.
func TestBatchDetectFailFast(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	if err := d.TrainOnSamples(ds.All()); err != nil {
		t.Fatal(err)
	}
	clips := []*audio.Clip{ds.Benign[0].Clip, nil, nil, ds.Benign[1].Clip}
	_, err := d.BatchDetect(context.Background(), clips)
	if err == nil {
		t.Fatal("expected error for nil clip")
	}
	if !strings.Contains(err.Error(), "clip 1") {
		t.Fatalf("expected the lowest-indexed failure, got %v", err)
	}
}

// TestBatchFeaturesMatchesSequential asserts the parallel feature path of
// TrainOnSamples is order-preserving and identical to sequential mode.
func TestBatchFeaturesMatchesSequential(t *testing.T) {
	set, ds := fixture(t)
	d := newDetector(t, set)
	samples := ds.All()
	X, y, err := d.Features(samples)
	if err != nil {
		t.Fatal(err)
	}
	d.Sequential = true
	wantX, wantY, err := d.Features(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(X) != len(wantX) || len(y) != len(wantY) {
		t.Fatalf("size mismatch: %dx%d vs %dx%d", len(X), len(y), len(wantX), len(wantY))
	}
	for i := range X {
		if y[i] != wantY[i] {
			t.Fatalf("label %d: %d != %d", i, y[i], wantY[i])
		}
		for j := range X[i] {
			if X[i][j] != wantX[i][j] {
				t.Fatalf("feature [%d][%d]: %v != %v", i, j, X[i][j], wantX[i][j])
			}
		}
	}
}
