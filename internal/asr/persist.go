package asr

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
	"mvpears/internal/lm"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
)

// Model persistence: a trained EngineSet serializes to a single gob
// stream, so CLI tools and services can train once and reload instantly.
//
// The gob payload stores plain exported snapshots (no live pointers into
// unexported state); Load rebuilds the runtime objects, re-deriving any
// cached values (Gaussian normalizers, decoder tables).

// persistVersion guards the on-disk format.
const persistVersion = 1

// gaussSnap is the serializable form of an hmm.Gaussian.
type gaussSnap struct {
	Mean []float64
	Var  []float64
}

// gmmSnap serializes an hmm.GMM.
type gmmSnap struct {
	Weights    []float64
	Components []gaussSnap
}

// emitterSnap serializes one HMM emitter (exactly one field set).
type emitterSnap struct {
	Gauss *gaussSnap
	GMM   *gmmSnap
}

// hmmSnap serializes the GMM engine's HMM.
type hmmSnap struct {
	LogInit  []float64
	LogTrans [][]float64
	Emitters []emitterSnap
}

// lmSnap serializes the shared language model by replaying its training
// counts (the model is rebuilt by re-training on the stored sentences'
// n-gram counts; we store the raw maps instead for exactness).
type lmSnap struct {
	Order  int
	K      float64
	Vocab  []string
	Counts map[string]float64
	Ctx    map[string]float64
}

// engineSetSnap is the full serialized engine set.
type engineSetSnap struct {
	Version    int
	SampleRate int
	LMWeight   float64

	LM lmSnap

	DS0MFCC dsp.MFCCConfig
	DS0Ctx  int
	DS0Net  *nn.MLP

	DS1MFCC dsp.MFCCConfig
	DS1Ctx  int
	DS1Net  *nn.MLP

	GCSMFCC   dsp.MFCCConfig
	GCSDeltas bool
	GCSNet    *nn.RNN

	ATMFCC dsp.MFCCConfig
	ATHMM  hmmSnap

	KLDMFCC      dsp.MFCCConfig
	KLDCentroids [][]float64
	KLDQuant     float64

	// Optional end-to-end CTC engine.
	HasCTC  bool
	CTCMFCC dsp.MFCCConfig
	CTCCtx  int
	CTCBeam int
	CTCNet  *nn.MLP
}

// Save serializes the engine set to w.
func (s *EngineSet) Save(w io.Writer) error {
	if s.DS0 == nil || s.DS1 == nil || s.GCS == nil || s.AT == nil || s.KLD == nil {
		return fmt.Errorf("asr: cannot save a partially built engine set")
	}
	snap := engineSetSnap{
		Version:    persistVersion,
		SampleRate: s.SampleRate,
		LMWeight:   s.DS0.Dec.LMWeight,
		LM:         snapshotLM(s.DS0.Dec.LM),
		DS0MFCC:    s.DS0.MFCC.Config(),
		DS0Ctx:     s.DS0.Context,
		DS0Net:     s.DS0.Net,
		DS1MFCC:    s.DS1.MFCC.Config(),
		DS1Ctx:     s.DS1.Context,
		DS1Net:     s.DS1.Net,
		GCSMFCC:    s.GCS.MFCC.Config(),
		GCSDeltas:  s.GCS.UseDeltas,
		GCSNet:     s.GCS.Net,
		ATMFCC:     s.AT.MFCC.Config(),
		ATHMM:      snapshotHMM(s.AT.Model),
		KLDMFCC:    s.KLD.MFCC.Config(),
		KLDQuant:   s.KLD.Quant,
	}
	if s.CTC != nil {
		snap.HasCTC = true
		snap.CTCMFCC = s.CTC.MFCC.Config()
		snap.CTCCtx = s.CTC.Context
		snap.CTCBeam = s.CTC.BeamWidth
		snap.CTCNet = s.CTC.Net
	}
	snap.KLDCentroids = make([][]float64, len(s.KLD.Centroids))
	for i, c := range s.KLD.Centroids {
		if c != nil {
			snap.KLDCentroids[i] = append([]float64(nil), c...)
		}
	}
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("asr: encoding engine set: %w", err)
	}
	return nil
}

// Load deserializes an engine set written by Save.
func Load(r io.Reader) (*EngineSet, error) {
	var snap engineSetSnap
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("asr: decoding engine set: %w", err)
	}
	if snap.Version != persistVersion {
		return nil, fmt.Errorf("asr: model format version %d, want %d", snap.Version, persistVersion)
	}
	model, err := restoreLM(snap.LM)
	if err != nil {
		return nil, err
	}
	dec, err := NewDecoder(model, snap.LMWeight, 5)
	if err != nil {
		return nil, err
	}
	set := &EngineSet{SampleRate: snap.SampleRate}
	mk := func(cfg dsp.MFCCConfig) (*dsp.MFCC, error) { return dsp.NewMFCC(cfg) }

	ds0MFCC, err := mk(snap.DS0MFCC)
	if err != nil {
		return nil, err
	}
	set.DS0 = &MLPEngine{ID: DS0, SampleRate: snap.SampleRate, Context: snap.DS0Ctx, MFCC: ds0MFCC, Net: snap.DS0Net, Dec: dec}

	ds1MFCC, err := mk(snap.DS1MFCC)
	if err != nil {
		return nil, err
	}
	set.DS1 = &MLPEngine{ID: DS1, SampleRate: snap.SampleRate, Context: snap.DS1Ctx, MFCC: ds1MFCC, Net: snap.DS1Net, Dec: dec}

	gcsMFCC, err := mk(snap.GCSMFCC)
	if err != nil {
		return nil, err
	}
	set.GCS = &RNNEngine{ID: GCS, SampleRate: snap.SampleRate, MFCC: gcsMFCC, UseDeltas: snap.GCSDeltas, Net: snap.GCSNet, Dec: dec}

	atMFCC, err := mk(snap.ATMFCC)
	if err != nil {
		return nil, err
	}
	atModel, err := restoreHMM(snap.ATHMM)
	if err != nil {
		return nil, err
	}
	set.AT = &GMMEngine{ID: AT, SampleRate: snap.SampleRate, MFCC: atMFCC, Model: atModel, Dec: dec}

	kldMFCC, err := mk(snap.KLDMFCC)
	if err != nil {
		return nil, err
	}
	centroids := make([][]float64, phoneme.Count())
	copy(centroids, snap.KLDCentroids)
	set.KLD = &WeakEngine{ID: KLD, SampleRate: snap.SampleRate, MFCC: kldMFCC, Centroids: centroids, Quant: snap.KLDQuant, Dec: dec}
	if snap.HasCTC {
		ctcMFCC, err := mk(snap.CTCMFCC)
		if err != nil {
			return nil, err
		}
		set.CTC = &CTCEngine{ID: DS2, SampleRate: snap.SampleRate, Context: snap.CTCCtx, MFCC: ctcMFCC, Net: snap.CTCNet, Dec: dec, BeamWidth: snap.CTCBeam}
	}
	return set, nil
}

// SaveFile writes the engine set to a file.
func (s *EngineSet) SaveFile(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("asr: creating model directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("asr: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("asr: closing %s: %w", path, cerr)
		}
	}()
	return s.Save(f)
}

// LoadFile reads an engine set from a file.
func LoadFile(path string) (*EngineSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("asr: opening %s: %w", path, err)
	}
	defer f.Close()
	set, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("asr: loading %s: %w", path, err)
	}
	return set, nil
}

func snapshotLM(m *lm.Model) lmSnap {
	snap := lmSnap{
		Order:  m.Order,
		K:      m.K,
		Counts: m.Counts(),
		Ctx:    m.ContextCounts(),
	}
	for w := range m.Vocab {
		snap.Vocab = append(snap.Vocab, w)
	}
	// Sorted vocab keeps the gob artifact byte-stable across saves: the
	// model fingerprint is a hash of these bytes, so map order here
	// would otherwise change the fingerprint on every save.
	sort.Strings(snap.Vocab)
	return snap
}

func restoreLM(snap lmSnap) (*lm.Model, error) {
	m, err := lm.New(snap.Order, snap.K)
	if err != nil {
		return nil, err
	}
	m.Restore(snap.Vocab, snap.Counts, snap.Ctx)
	return m, nil
}

func snapshotHMM(h *hmm.HMM) hmmSnap {
	snap := hmmSnap{
		LogInit:  h.LogInit,
		LogTrans: h.LogTrans,
		Emitters: make([]emitterSnap, len(h.Emitters)),
	}
	for i, e := range h.Emitters {
		switch em := e.(type) {
		case *hmm.Gaussian:
			snap.Emitters[i] = emitterSnap{Gauss: &gaussSnap{Mean: em.Mean, Var: em.Var}}
		case *hmm.GMM:
			g := &gmmSnap{Weights: em.Weights, Components: make([]gaussSnap, len(em.Components))}
			for j, c := range em.Components {
				g.Components[j] = gaussSnap{Mean: c.Mean, Var: c.Var}
			}
			snap.Emitters[i] = emitterSnap{GMM: g}
		}
	}
	return snap
}

func restoreHMM(snap hmmSnap) (*hmm.HMM, error) {
	emitters := make([]hmm.Emitter, len(snap.Emitters))
	for i, es := range snap.Emitters {
		switch {
		case es.Gauss != nil:
			g, err := hmm.NewGaussian(es.Gauss.Mean, es.Gauss.Var)
			if err != nil {
				return nil, err
			}
			emitters[i] = g
		case es.GMM != nil:
			comps := make([]*hmm.Gaussian, len(es.GMM.Components))
			for j, cs := range es.GMM.Components {
				c, err := hmm.NewGaussian(cs.Mean, cs.Var)
				if err != nil {
					return nil, err
				}
				comps[j] = c
			}
			mix, err := hmm.NewGMM(es.GMM.Weights, comps)
			if err != nil {
				return nil, err
			}
			emitters[i] = mix
		default:
			return nil, fmt.Errorf("asr: emitter %d has no payload", i)
		}
	}
	return hmm.NewHMM(snap.LogInit, snap.LogTrans, emitters)
}
