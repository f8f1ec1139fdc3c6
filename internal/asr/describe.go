package asr

import (
	"fmt"

	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
)

// EngineInfo summarizes one engine's architecture — the diversity
// inventory the MVP idea depends on.
type EngineInfo struct {
	ID           EngineID
	Architecture string
	FrontEnd     string
	Parameters   int
}

func describeFrontEnd(cfg dsp.MFCCConfig) string {
	return fmt.Sprintf("MFCC %dc/%df %s %dms/%dms",
		cfg.NumCoeffs, cfg.NumFilters, cfg.Window,
		cfg.FrameLen*1000/cfg.SampleRate, cfg.Hop*1000/cfg.SampleRate)
}

func mlpParams(sizes []int) int {
	total := 0
	for l := 0; l+1 < len(sizes); l++ {
		total += sizes[l]*sizes[l+1] + sizes[l+1]
	}
	return total
}

// Parameters counts the acoustic model's trained parameters. Every
// engine family has the method and reads each parameter once per frame,
// so the count is also the static per-frame work weight the cascade
// elects its leader on (detector.EnableCascade).
func (e *MLPEngine) Parameters() int { return mlpParams(e.Net.Sizes) }

// Parameters: see MLPEngine.Parameters.
func (e *CTCEngine) Parameters() int { return mlpParams(e.Net.Sizes) }

// Parameters: see MLPEngine.Parameters.
func (e *RNNEngine) Parameters() int {
	n := e.Net
	return len(n.Wx) + len(n.Wh) + len(n.Wy) + len(n.Bh) + len(n.By)
}

// Parameters: means and variances of every mixture component, mixture
// weights, and the transition matrix; see MLPEngine.Parameters.
func (e *GMMEngine) Parameters() int {
	params := e.Model.NumStates * e.Model.NumStates
	for _, em := range e.Model.Emitters {
		switch em := em.(type) {
		case *hmm.Gaussian:
			params += 2 * len(em.Mean)
		case *hmm.GMM:
			for _, c := range em.Components {
				params += 2 * len(c.Mean)
			}
			params += len(em.Weights)
		}
	}
	return params
}

// Parameters: see MLPEngine.Parameters.
func (e *WeakEngine) Parameters() int {
	params := 0
	for _, c := range e.Centroids {
		params += len(c)
	}
	return params
}

// Describe returns the architecture inventory of all trained engines.
func (s *EngineSet) Describe() []EngineInfo {
	var out []EngineInfo
	if s.DS0 != nil {
		out = append(out, EngineInfo{
			ID:           DS0,
			Architecture: fmt.Sprintf("MLP frame classifier, layers %v, context ±%d", s.DS0.Net.Sizes, s.DS0.Context),
			FrontEnd:     describeFrontEnd(s.DS0.MFCC.Config()),
			Parameters:   s.DS0.Parameters(),
		})
	}
	if s.DS1 != nil {
		out = append(out, EngineInfo{
			ID:           DS1,
			Architecture: fmt.Sprintf("MLP frame classifier, layers %v, context ±%d", s.DS1.Net.Sizes, s.DS1.Context),
			FrontEnd:     describeFrontEnd(s.DS1.MFCC.Config()),
			Parameters:   s.DS1.Parameters(),
		})
	}
	if s.GCS != nil {
		n := s.GCS.Net
		out = append(out, EngineInfo{
			ID:           GCS,
			Architecture: fmt.Sprintf("Elman RNN, %d->%d->%d (+deltas)", n.In, n.Hidden, n.Out),
			FrontEnd:     describeFrontEnd(s.GCS.MFCC.Config()),
			Parameters:   s.GCS.Parameters(),
		})
	}
	if s.AT != nil {
		out = append(out, EngineInfo{
			ID:           AT,
			Architecture: fmt.Sprintf("GMM-HMM, %d states, Viterbi decoding", s.AT.Model.NumStates),
			FrontEnd:     describeFrontEnd(s.AT.MFCC.Config()),
			Parameters:   s.AT.Parameters(),
		})
	}
	if s.KLD != nil {
		out = append(out, EngineInfo{
			ID:           KLD,
			Architecture: fmt.Sprintf("nearest-centroid (quantized, step %.1f) — deliberately weak", s.KLD.Quant),
			FrontEnd:     describeFrontEnd(s.KLD.MFCC.Config()),
			Parameters:   s.KLD.Parameters(),
		})
	}
	if s.CTC != nil {
		out = append(out, EngineInfo{
			ID:           DS2,
			Architecture: fmt.Sprintf("end-to-end CTC MLP, layers %v, prefix beam width %d", s.CTC.Net.Sizes, s.CTC.BeamWidth),
			FrontEnd:     describeFrontEnd(s.CTC.MFCC.Config()),
			Parameters:   s.CTC.Parameters(),
		})
	}
	return out
}
