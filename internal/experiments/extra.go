package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/attack"
	"mvpears/internal/classify"
	"mvpears/internal/dataset"
	"mvpears/internal/detector"
	"mvpears/internal/speech"
)

// Overhead reproduces §V-I: the detection overhead of DS0+{DS1}
// decomposed into recognition (parallel-ASR) overhead, similarity
// calculation, and classification.
func Overhead(env *Env) (*Result, error) {
	res := &Result{
		ID:    "overhead",
		Title: "Detection time overhead on DS0+{DS1} (SVM)",
		PaperNote: "DS0 alone 8.8 s/audio; parallel-ASR overhead 0.065 s (0.74%); " +
			"similarity 5.0e-06 s; classification 4.2e-07 s — all negligible.",
	}
	d, err := detector.New(env.Set.DS0, []asr.Recognizer{env.Set.DS1})
	if err != nil {
		return nil, err
	}
	method, err := env.PEJaroWinkler()
	if err != nil {
		return nil, err
	}
	sys := System{Aux: []asr.EngineID{asr.DS1}}
	X, y := env.Features(sys, method)
	var benignX, aeX [][]float64
	for i := range X {
		if y[i] == 1 {
			aeX = append(aeX, X[i])
		} else {
			benignX = append(benignX, X[i])
		}
	}
	if err := d.Train(benignX, aeX); err != nil {
		return nil, err
	}
	n := len(env.Samples)
	if n > 60 {
		n = 60
	}
	var baseTotal, base1Total, recogTotal, simTotal, classifyTotal time.Duration
	for i := 0; i < n; i++ {
		clip := env.Samples[i].Clip
		start := time.Now()
		if _, err := env.Set.DS0.Transcribe(clip); err != nil {
			return nil, err
		}
		baseTotal += time.Since(start)
		start = time.Now()
		if _, err := env.Set.DS1.Transcribe(clip); err != nil {
			return nil, err
		}
		base1Total += time.Since(start)
		dec, err := d.Detect(context.Background(), clip)
		if err != nil {
			return nil, err
		}
		recogTotal += dec.Timing.Recognition
		simTotal += dec.Timing.Similarity
		classifyTotal += dec.Timing.Classify
	}
	base := baseTotal / time.Duration(n)
	base1 := base1Total / time.Duration(n)
	recog := recogTotal / time.Duration(n)
	sim := simTotal / time.Duration(n)
	cls := classifyTotal / time.Duration(n)
	slowest := base
	if base1 > slowest {
		slowest = base1
	}
	overhead := recog - slowest
	if overhead < 0 {
		overhead = 0
	}
	res.addf("DS0 alone (mean):             %v", base)
	res.addf("DS1 alone (mean):             %v (DS1 is the wider sibling model, so it is slower)", base1)
	res.addf("parallel DS0+DS1 recognition: %v (overhead vs slowest engine %v, %.2f%%)",
		recog, overhead, float64(overhead)/float64(slowest)*100)
	res.addf("similarity calculation:       %v", sim)
	res.addf("classification:               %v", cls)
	res.addf("similarity+classification are %.4f%% of recognition time",
		float64(sim+cls)/float64(recog)*100)
	if cores := runtime.GOMAXPROCS(0); cores < 2 {
		res.addf("NOTE: GOMAXPROCS=%d — the parallel engines cannot actually overlap on this host,", cores)
		res.addf("so the recognition 'overhead' approaches the sum of engine times. On a multicore")
		res.addf("host (the paper used 18 cores) it approaches max(engine times) instead.")
	}
	return res, nil
}

// NonTargetedExperiment reproduces §V-J: noise-based non-targeted AEs
// (SNR -6 dB, WER > 80%) against single-auxiliary threshold detectors at
// FPR 5%.
func NonTargetedExperiment(env *Env) (*Result, error) {
	res := &Result{
		ID:        "nontargeted",
		Title:     "Detecting non-targeted (noise) AEs with threshold detectors (FPR 5%)",
		PaperNote: "defense rate > 90% for every auxiliary; lower than targeted AEs because of the smaller WER.",
	}
	n := env.Cfg.Scale.BlackBox
	if n < 8 {
		n = 8
	}
	samples, err := dataset.BuildNonTargeted(env.Set, n, env.Cfg.Seed+500)
	if err != nil {
		return nil, err
	}
	method, err := env.PEJaroWinkler()
	if err != nil {
		return nil, err
	}
	for _, sys := range singleAuxSystems {
		// Threshold from the benign score distribution.
		X, y := env.Features(sys, method)
		var benignScores []float64
		for i, v := range X {
			if y[i] == 0 {
				benignScores = append(benignScores, v[0])
			}
		}
		thr, err := classify.ThresholdForFPR(benignScores, 0.05)
		if err != nil {
			return nil, err
		}
		aux, err := env.Set.Get(sys.Aux[0])
		if err != nil {
			return nil, err
		}
		var caught int
		for _, s := range samples {
			t0, err := env.Set.DS0.Transcribe(s.Clip)
			if err != nil {
				return nil, err
			}
			t1, err := aux.Transcribe(s.Clip)
			if err != nil {
				return nil, err
			}
			if method.Compare(speech.NormalizeText(t0), speech.NormalizeText(t1)) < thr {
				caught++
			}
		}
		rate := float64(caught) / float64(len(samples))
		res.addf("%-16s threshold %.2f  defense rate %s (%d/%d)", sys.Name(), thr, pct(rate), caught, len(samples))
	}
	return res, nil
}

// TransferStudy reproduces §III-B: (a) the AE transfer matrix — how many
// dataset AEs fool each engine — and (b) the CommanderSong-style
// two-iteration recursive attack, which fails to produce transferable
// AEs.
func TransferStudy(env *Env) (*Result, error) {
	res := &Result{
		ID:    "transfer",
		Title: "Transferability study (the paper's §III-B)",
		PaperNote: "AEs fool only the engine they target; the two-iteration recursive attack yields AEs " +
			"that fool the second engine but no longer the first.",
	}
	// (a) Transfer matrix from the cached transcription matrix.
	aes := 0
	fooled := map[asr.EngineID]int{}
	for i, s := range env.Samples {
		if !s.IsAE() {
			continue
		}
		aes++
		for _, id := range []asr.EngineID{asr.DS0, asr.DS1, asr.GCS, asr.AT} {
			if env.Texts[id][i] == s.Target {
				fooled[id]++
			}
		}
	}
	if aes == 0 {
		return nil, fmt.Errorf("no AEs in dataset")
	}
	res.addf("engines fooled by the %d dataset AEs (all crafted against DS0):", aes)
	for _, id := range []asr.EngineID{asr.DS0, asr.DS1, asr.GCS, asr.AT} {
		res.addf("  %-4s %4d/%d (%s)", id, fooled[id], aes, pct(float64(fooled[id])/float64(aes)))
	}
	// (b) Recursive two-iteration attack DS0 -> DS1.
	synth := speech.NewSynthesizer(env.Set.SampleRate)
	hosts, err := speech.GenerateUtterances(synth, 2, env.Cfg.Seed+700)
	if err != nil {
		return nil, err
	}
	cfg := attack.DefaultWhiteBoxConfig()
	var attempted, foolsBoth, foolsSecondOnly int
	for i, h := range hosts {
		rr, err := attack.Recursive(env.Set.DS0, env.Set.DS1, h.Clip, speech.MaliciousCommands[i%len(speech.MaliciousCommands)], cfg)
		if err != nil {
			return nil, err
		}
		if rr.First == nil || !rr.First.Success {
			continue
		}
		attempted++
		switch {
		case rr.FoolsFirst && rr.FoolsSecond:
			foolsBoth++
		case rr.FoolsSecond:
			foolsSecondOnly++
		}
	}
	res.addf("recursive DS0->DS1 attacks completed: %d", attempted)
	res.addf("  final AE fools both engines (transferable): %d", foolsBoth)
	res.addf("  final AE fools only the second engine:      %d", foolsSecondOnly)
	return res, nil
}
