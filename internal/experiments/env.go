// Package experiments regenerates every table and figure of the paper's
// evaluation (§V): the feasibility histograms, similarity-method
// comparison, single- and multi-auxiliary detection accuracy, robustness
// to unseen attacks, the hypothetical transferable-AE (MAE) study, the
// overhead decomposition, and the non-targeted-attack defense rates.
//
// All experiments share an Env: trained engines, a generated dataset, and
// a transcription matrix (every sample transcribed once by every engine),
// so individual experiments only do cheap score/classifier work.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"mvpears/internal/asr"
	"mvpears/internal/dataset"
	"mvpears/internal/detector"
	"mvpears/internal/similarity"
	"mvpears/internal/speech"
)

// Config scales the experiment suite.
type Config struct {
	Train asr.TrainConfig
	Scale dataset.Scale
	// MAEPerType is the number of hypothetical MAE vectors per type
	// (paper: 2400; cheap, so full scale by default).
	MAEPerType int
	// AdaptiveHosts bounds how many hosts the adaptive attacks in the
	// baselines experiment may try (each attempt is a full white-box
	// optimization).
	AdaptiveHosts int
	Seed          int64
}

// DefaultConfig is the cmd/experiments default: medium dataset, full MAE
// scale.
func DefaultConfig() Config {
	return Config{
		Train:         asr.DefaultTrainConfig(),
		Scale:         dataset.MediumScale(),
		MAEPerType:    2400,
		AdaptiveHosts: 4,
		Seed:          1,
	}
}

// QuickConfig is used by unit tests.
func QuickConfig() Config {
	return Config{
		Train:         asr.QuickTrainConfig(),
		Scale:         dataset.TinyScale(),
		MAEPerType:    300,
		AdaptiveHosts: 2,
		Seed:          1,
	}
}

// FullConfig approaches the paper's dataset ratios.
func FullConfig() Config {
	return Config{
		Train:         asr.DefaultTrainConfig(),
		Scale:         dataset.FullScale(),
		MAEPerType:    2400,
		AdaptiveHosts: 5,
		Seed:          1,
	}
}

// Env is the shared experimental environment.
type Env struct {
	Cfg      Config
	Set      *asr.EngineSet
	Data     *dataset.Dataset
	Registry *similarity.Registry

	// Samples is Data.All() in a fixed order; Labels[i] is 1 for AEs.
	Samples []dataset.Sample
	Labels  []int
	// Texts[id][i] is engine id's transcription of sample i.
	Texts map[asr.EngineID][]string
}

// engineOrder is the transcription matrix column order.
var engineOrder = []asr.EngineID{asr.DS0, asr.DS1, asr.GCS, asr.AT, asr.KLD}

// BuildEnv trains engines, builds datasets, and fills the transcription
// matrix. This is the expensive step; everything downstream is cheap.
func BuildEnv(cfg Config, logf func(format string, args ...any)) (*Env, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("training %d engines (corpus=%d, epochs=%d)...", len(engineOrder), cfg.Train.NumUtterances, cfg.Train.Epochs)
	set, err := asr.BuildEngines(cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	logf("building dataset (benign=%d, white-box=%d, black-box=%d)...",
		cfg.Scale.Benign, cfg.Scale.WhiteBox, cfg.Scale.BlackBox)
	data, err := dataset.Build(set, cfg.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	reg, err := similarity.NewRegistry(detector.DefaultEncoder)
	if err != nil {
		return nil, err
	}
	env := &Env{Cfg: cfg, Set: set, Data: data, Registry: reg}
	env.Samples = data.All()
	env.Labels = make([]int, len(env.Samples))
	for i, s := range env.Samples {
		if s.IsAE() {
			env.Labels[i] = 1
		}
	}
	logf("transcribing %d samples x %d engines...", len(env.Samples), len(engineOrder))
	if err := env.fillTexts(); err != nil {
		return nil, err
	}
	return env, nil
}

// fillTexts transcribes every sample with every engine. Jobs are
// per-sample: within a job the engines run sequentially but share a
// per-clip feature cache (engines with identical MFCC front ends extract
// features once); samples are spread over a GOMAXPROCS-sized worker pool.
func (e *Env) fillTexts() error {
	e.Texts = make(map[asr.EngineID][]string, len(engineOrder))
	for _, id := range engineOrder {
		e.Texts[id] = make([]string, len(e.Samples))
	}
	engines := make([]asr.Recognizer, len(engineOrder))
	for i, id := range engineOrder {
		rec, err := e.Set.Get(id)
		if err != nil {
			return fmt.Errorf("experiments: engine %s: %w", id, err)
		}
		engines[i] = rec
	}
	jobs := make(chan int)
	errCh := make(chan error, 1)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				texts, err := asr.TranscribeAll(context.Background(), engines, e.Samples[idx].Clip, false)
				if err != nil {
					select {
					case errCh <- fmt.Errorf("experiments: transcribing sample %d: %w", idx, err):
					default:
					}
					continue
				}
				for j, id := range engineOrder {
					e.Texts[id][idx] = speech.NormalizeText(texts[j])
				}
			}
		}()
	}
	for i := range e.Samples {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// System identifies a detector configuration by its auxiliary engines.
type System struct {
	Aux []asr.EngineID
}

// Name renders the paper's DS0+{...} notation.
func (s System) Name() string {
	out := "DS0+{"
	for i, id := range s.Aux {
		if i > 0 {
			out += ", "
		}
		out += string(id)
	}
	return out + "}"
}

// Standard systems of the paper.
var (
	singleAuxSystems = []System{
		{Aux: []asr.EngineID{asr.DS1}},
		{Aux: []asr.EngineID{asr.GCS}},
		{Aux: []asr.EngineID{asr.AT}},
	}
	multiAuxSystems = []System{
		{Aux: []asr.EngineID{asr.DS1, asr.GCS}},
		{Aux: []asr.EngineID{asr.DS1, asr.AT}},
		{Aux: []asr.EngineID{asr.GCS, asr.AT}},
		{Aux: []asr.EngineID{asr.DS1, asr.GCS, asr.AT}},
	}
	threeAuxSystem = System{Aux: []asr.EngineID{asr.DS1, asr.GCS, asr.AT}}
)

// newSeededRand returns a deterministic rand source for experiment
// runners.
func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// ThreeAuxSystem returns the paper's full three-auxiliary system
// DS0+{DS1, GCS, AT} (exported for the root benchmark harness).
func ThreeAuxSystem() System { return threeAuxSystem }

// Features computes the similarity feature matrix of a system under a
// method, using the cached transcription matrix. The returned labels
// alias Env.Labels.
func (e *Env) Features(sys System, method similarity.Method) ([][]float64, []int) {
	target := e.Texts[asr.DS0]
	X := make([][]float64, len(e.Samples))
	for i := range e.Samples {
		v := make([]float64, len(sys.Aux))
		for j, aux := range sys.Aux {
			v[j] = method.Compare(target[i], e.Texts[aux][i])
		}
		X[i] = v
	}
	return X, e.Labels
}

// FeaturesByKind splits a feature matrix by sample kind.
func (e *Env) FeaturesByKind(X [][]float64) (benign, whiteBox, blackBox [][]float64) {
	for i, s := range e.Samples {
		switch s.Kind {
		case dataset.KindWhiteBox:
			whiteBox = append(whiteBox, X[i])
		case dataset.KindBlackBox:
			blackBox = append(blackBox, X[i])
		default:
			benign = append(benign, X[i])
		}
	}
	return benign, whiteBox, blackBox
}

// PEJaroWinkler returns the paper's chosen method from the registry.
func (e *Env) PEJaroWinkler() (similarity.Method, error) {
	return e.Registry.Get(similarity.MethodPEJaroWinkler)
}
