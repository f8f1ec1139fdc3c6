package mvpears

// The benchmark harness regenerates every table and figure of the paper:
// each BenchmarkTableN / BenchmarkFigN builds the shared experiment
// environment once (engines + dataset + transcription matrix), then times
// the experiment computation and prints the regenerated rows the first
// time it runs. Ablation benches cover the design choices called out in
// DESIGN.md (phonetic encoder, weak auxiliary, threshold vs classifier).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The environment uses the quick scale so the full bench suite stays in
// the minutes range; use cmd/experiments for larger-scale runs.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/attack"
	"mvpears/internal/classify"
	"mvpears/internal/detector"
	"mvpears/internal/dsp"
	"mvpears/internal/experiments"
	"mvpears/internal/phonetic"
	"mvpears/internal/similarity"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
	printedMu    sync.Mutex
	printed      = map[string]bool{}
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.BuildEnv(experiments.QuickConfig(), nil)
	})
	if benchEnvErr != nil {
		b.Fatalf("building bench environment: %v", benchEnvErr)
	}
	return benchEnv
}

// printOnce emits the regenerated table exactly once per bench binary.
func printOnce(id, text string) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if printed[id] {
		return
	}
	printed[id] = true
	fmt.Println(text)
}

// benchExperiment is the shared per-table bench body.
func benchExperiment(b *testing.B, id string) {
	env := benchEnvironment(b)
	runner, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.StopTimer()
			printOnce(id, res.String())
			b.StartTimer()
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "table2") }
func BenchmarkFig4(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "table6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "table7") }
func BenchmarkFig5(b *testing.B)    { benchExperiment(b, "fig5") }
func BenchmarkTable8(b *testing.B)  { benchExperiment(b, "table8") }
func BenchmarkTable9(b *testing.B)  { benchExperiment(b, "table9") }
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }
func BenchmarkTable11(b *testing.B) { benchExperiment(b, "table11") }
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }

// BenchmarkOverhead regenerates the §V-I timing decomposition.
func BenchmarkOverhead(b *testing.B) { benchExperiment(b, "overhead") }

// BenchmarkNonTargeted regenerates the §V-J non-targeted-AE experiment.
func BenchmarkNonTargeted(b *testing.B) { benchExperiment(b, "nontargeted") }

// BenchmarkTransfer regenerates the §III-B transferability study
// (includes live recursive attacks — the slowest bench).
func BenchmarkTransfer(b *testing.B) { benchExperiment(b, "transfer") }

// benchDetector builds the paper's three-auxiliary detector over the
// bench environment's engines and trains its classifier on the
// environment's samples.
func benchDetector(b *testing.B) *detector.Detector {
	b.Helper()
	env := benchEnvironment(b)
	det, err := detector.New(env.Set.DS0, env.Set.Auxiliaries())
	if err != nil {
		b.Fatal(err)
	}
	if err := det.TrainOnSamples(env.Samples); err != nil {
		b.Fatal(err)
	}
	return det
}

// BenchmarkDetectHotPath times one end-to-end detection (parallel
// transcription + similarity + classification) — the per-input serving
// cost the §V-I overhead study is about. Tracked in BENCH_detect.json.
func BenchmarkDetectHotPath(b *testing.B) {
	det := benchDetector(b)
	clip := benchEnvironment(b).Samples[0].Clip
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(context.Background(), clip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectBudget attributes one real detection at GOMAXPROCS(1),
// where the layers run one after another and sum: DetectCtx as served;
// the roster's front end, which a detection runs once (one shared pass
// per spectrum group); then each engine's share with its features
// already in the clip's cache — acoustic model, energy gate, word decode,
// in roster order over one cache, so the lexicon matches an earlier
// engine paid for are shared as they are in DetectCtx. "closure" is
// (front end + engines) ÷ detect; the rest is scoring, classification and
// dispatch. The frozen replay (bench/README.md) cannot see the shared
// front end nor, since it labels with the ungated FrameLabels, the frames
// the gate spares the MLP engines: this benchmark and
// detector.detect_seq_us are the authoritative figures.
func BenchmarkDetectBudget(b *testing.B) {
	det := benchDetector(b)
	set := benchEnvironment(b).Set
	clip := benchEnvironment(b).Samples[0].Clip
	engines := []asr.CacheTranscriber{set.DS0, set.DS1, set.GCS, set.AT}
	ms := []*dsp.MFCC{set.DS0.MFCC, set.DS1.MFCC, set.GCS.MFCC, set.AT.MFCC}
	fe := dsp.NewFrontEnd(ms)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var detect, front time.Duration
	perEngine := make([]time.Duration, len(engines))
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := det.Detect(ctx, clip); err != nil {
			b.Fatal(err)
		}
		detect += time.Since(start)
		start = time.Now()
		if _, err := fe.Extract(clip.Samples); err != nil {
			b.Fatal(err)
		}
		front += time.Since(start)
		cache := asr.GetFeatureCache(clip.Samples)
		for _, m := range ms {
			if _, err := cache.Extract(m); err != nil {
				b.Fatal(err)
			}
		}
		for j, e := range engines {
			start = time.Now()
			if _, err := e.TranscribeWithCache(clip, cache); err != nil {
				b.Fatal(err)
			}
			perEngine[j] += time.Since(start)
		}
		asr.PutFeatureCache(cache)
	}
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(b.N) }
	b.ReportMetric(us(detect), "detect-µs")
	b.ReportMetric(us(front), "frontend-µs")
	attributed := front
	for j, e := range engines {
		b.ReportMetric(us(perEngine[j]), e.Name()+"-µs")
		attributed += perEngine[j]
	}
	b.ReportMetric(float64(attributed)/float64(detect), "closure")
}

// BenchmarkBatchFeatures times feature extraction over the whole sample
// set — the training-path throughput. Tracked in BENCH_detect.json.
func BenchmarkBatchFeatures(b *testing.B) {
	det := benchDetector(b)
	samples := benchEnvironment(b).Samples
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Features(samples); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks decomposing the detection pipeline (§V-I's three
// overhead components at operation granularity).

func BenchmarkDetectPipeline(b *testing.B) {
	env := benchEnvironment(b)
	clip := env.Samples[0].Clip
	method, err := env.PEJaroWinkler()
	if err != nil {
		b.Fatal(err)
	}
	engines := []asr.Recognizer{env.Set.DS0, env.Set.DS1, env.Set.GCS, env.Set.AT}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		texts := make([]string, len(engines))
		for j, e := range engines {
			t, err := e.Transcribe(clip)
			if err != nil {
				b.Fatal(err)
			}
			texts[j] = t
		}
		for j := 1; j < len(texts); j++ {
			_ = method.Compare(texts[0], texts[j])
		}
	}
}

func BenchmarkSimilarityCalculation(b *testing.B) {
	env := benchEnvironment(b)
	method, err := env.PEJaroWinkler()
	if err != nil {
		b.Fatal(err)
	}
	a := "open the front door"
	c := "open the fond tour"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = method.Compare(a, c)
	}
}

func BenchmarkClassifierInference(b *testing.B) {
	env := benchEnvironment(b)
	method, err := env.PEJaroWinkler()
	if err != nil {
		b.Fatal(err)
	}
	X, y := env.Features(experiments.ThreeAuxSystem(), method)
	svm := classify.NewSVM()
	if err := svm.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	v := X[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Predict(v); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices in DESIGN.md §5.

// BenchmarkAblationPhonetic compares phonetic encoders (and no encoding)
// under JaroWinkler on the 3-auxiliary system.
func BenchmarkAblationPhonetic(b *testing.B) {
	env := benchEnvironment(b)
	encoders := []struct {
		name string
		enc  similarity.Encoder
	}{
		{"none", nil},
		{"soundex", func(s string) string { return phonetic.Encode(phonetic.Soundex, s) }},
		{"metaphone", func(s string) string { return phonetic.Encode(phonetic.Metaphone, s) }},
		{"nysiis", func(s string) string { return phonetic.Encode(phonetic.NYSIIS, s) }},
	}
	for _, e := range encoders {
		e := e
		b.Run(e.name, func(b *testing.B) {
			method := similarity.Method{Name: "ablation", Encoder: e.enc, Score: similarity.JaroWinkler}
			var lastAcc float64
			for i := 0; i < b.N; i++ {
				X, y := env.Features(experiments.ThreeAuxSystem(), method)
				trainX, trainY, testX, testY, err := classify.TrainTestSplit(X, y, 0.8, 1)
				if err != nil {
					b.Fatal(err)
				}
				svm := classify.NewSVM()
				if err := svm.Fit(trainX, trainY); err != nil {
					b.Fatal(err)
				}
				conf, err := classify.Evaluate(svm, testX, testY)
				if err != nil {
					b.Fatal(err)
				}
				lastAcc = conf.Accuracy()
			}
			b.ReportMetric(lastAcc*100, "acc%")
			printOnce("ablation-pe-"+e.name, fmt.Sprintf("[ablation] encoder=%-9s JaroWinkler accuracy %.2f%%", e.name, lastAcc*100))
		})
	}
}

// BenchmarkAblationWeakAux quantifies the paper's Kaldi observation: a
// weak auxiliary collapses detection accuracy.
func BenchmarkAblationWeakAux(b *testing.B) { benchExperiment(b, "weakaux") }

// BenchmarkAblationClassifiers compares the classifier families on the
// 3-auxiliary system (fit + evaluate).
func BenchmarkAblationClassifiers(b *testing.B) {
	env := benchEnvironment(b)
	method, err := env.PEJaroWinkler()
	if err != nil {
		b.Fatal(err)
	}
	X, y := env.Features(experiments.ThreeAuxSystem(), method)
	factories := []classify.Factory{
		func() classify.Classifier { return classify.NewSVM() },
		func() classify.Classifier { return classify.NewKNN() },
		func() classify.Classifier { return classify.NewRandomForest() },
		func() classify.Classifier { return classify.NewLogReg() },
		func() classify.Classifier { return classify.NewNaiveBayes() },
	}
	for _, factory := range factories {
		name := factory().Name()
		factory := factory
		b.Run(name, func(b *testing.B) {
			var lastAcc float64
			for i := 0; i < b.N; i++ {
				trainX, trainY, testX, testY, err := classify.TrainTestSplit(X, y, 0.8, 1)
				if err != nil {
					b.Fatal(err)
				}
				clf := factory()
				if err := clf.Fit(trainX, trainY); err != nil {
					b.Fatal(err)
				}
				conf, err := classify.Evaluate(clf, testX, testY)
				if err != nil {
					b.Fatal(err)
				}
				lastAcc = conf.Accuracy()
			}
			b.ReportMetric(lastAcc*100, "acc%")
		})
	}
}

// Attack benchmarks: the cost of crafting one AE of each family (the
// paper reports 18 min white-box / 90 min black-box per AE on its GPU
// testbed; these measure the synthetic substrate's equivalents).

func BenchmarkWhiteBoxAttack(b *testing.B) {
	env := benchEnvironment(b)
	host := env.Samples[0].Clip
	cfg := attack.DefaultWhiteBoxConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := attack.WhiteBox(env.Set.DS0, host, "open the garage", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlackBoxAttack(b *testing.B) {
	env := benchEnvironment(b)
	host := env.Samples[0].Clip
	cfg := attack.DefaultBlackBoxConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := attack.BlackBox(env.Set.DS0, host, "open door", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNonTargetedAttack(b *testing.B) {
	env := benchEnvironment(b)
	host := env.Samples[0].Clip
	cfg := attack.DefaultNonTargetedConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := attack.NonTargeted(env.Set.DS0, host, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranscribePerEngine times a single transcription on each
// engine architecture.
func BenchmarkTranscribePerEngine(b *testing.B) {
	env := benchEnvironment(b)
	clip := env.Samples[0].Clip
	engines := []asr.Recognizer{env.Set.DS0, env.Set.DS1, env.Set.GCS, env.Set.AT, env.Set.KLD}
	for _, eng := range engines {
		eng := eng
		b.Run(eng.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Transcribe(clip); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
