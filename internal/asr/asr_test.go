package asr

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/lm"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
	"mvpears/internal/speech"
)

var (
	quickSetOnce sync.Once
	quickSet     *EngineSet
	quickSetErr  error
)

// testEngines trains one small engine set shared by all tests in this
// package.
func testEngines(t testing.TB) *EngineSet {
	t.Helper()
	quickSetOnce.Do(func() {
		quickSet, quickSetErr = BuildEngines(QuickTrainConfig())
	})
	if quickSetErr != nil {
		t.Fatalf("training quick engine set: %v", quickSetErr)
	}
	return quickSet
}

func testLM(t *testing.T) *lm.Model {
	t.Helper()
	m, err := lm.New(2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	m.Train([][]string{
		{"open", "the", "door"},
		{"close", "the", "window"},
		{"the", "door", "is", "open"},
	})
	return m
}

func TestBuildEnginesValidation(t *testing.T) {
	if _, err := BuildEngines(TrainConfig{}); err == nil {
		t.Fatal("expected error for zero config")
	}
	if _, err := BuildEngines(TrainConfig{SampleRate: 8000, NumUtterances: 0, Epochs: 1}); err == nil {
		t.Fatal("expected error for zero utterances")
	}
}

func TestEngineSetAccessors(t *testing.T) {
	set := testEngines(t)
	for _, id := range []EngineID{DS0, DS1, GCS, AT, KLD} {
		rec, err := set.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if rec.Name() != string(id) {
			t.Fatalf("engine %s reports name %q", id, rec.Name())
		}
	}
	if _, err := set.Get("NOPE"); err == nil {
		t.Fatal("expected error for unknown engine")
	}
	if set.Target() != set.DS0 {
		t.Fatal("target must be DS0")
	}
	aux := set.Auxiliaries()
	if len(aux) != 3 || aux[0].Name() != "DS1" || aux[1].Name() != "GCS" || aux[2].Name() != "AT" {
		t.Fatalf("auxiliaries misordered: %v", aux)
	}
}

func TestEnginesTranscribeBenignAudio(t *testing.T) {
	set := testEngines(t)
	synth := speech.NewSynthesizer(set.SampleRate)
	utts, err := speech.GenerateUtterances(synth, 12, 424242)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []Recognizer{set.DS0, set.DS1, set.GCS, set.AT} {
		res, err := EvaluateWER(rec, utts)
		if err != nil {
			t.Fatalf("%s: %v", rec.Name(), err)
		}
		if res.MeanWER > 0.35 {
			t.Errorf("%s mean WER %.3f too high for a strong engine", rec.Name(), res.MeanWER)
		}
	}
	// The weak engine must be clearly worse than the strong ones,
	// reproducing the paper's Kaldi note.
	strong, err := EvaluateWER(set.DS0, utts)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := EvaluateWER(set.KLD, utts)
	if err != nil {
		t.Fatal(err)
	}
	if weak.MeanWER <= strong.MeanWER {
		t.Errorf("KLD (%.3f) not weaker than DS0 (%.3f)", weak.MeanWER, strong.MeanWER)
	}
}

func TestTranscribeDeterministic(t *testing.T) {
	set := testEngines(t)
	synth := speech.NewSynthesizer(set.SampleRate)
	rng := rand.New(rand.NewSource(7))
	clip, _, err := synth.SynthesizeSentence("open the door", speech.DefaultSpeaker(), rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := set.DS0.Transcribe(clip)
	if err != nil {
		t.Fatal(err)
	}
	b, err := set.DS0.Transcribe(clip)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("nondeterministic transcription: %q vs %q", a, b)
	}
}

func TestEngineInputValidation(t *testing.T) {
	set := testEngines(t)
	if _, err := set.DS0.Transcribe(nil); err == nil {
		t.Fatal("expected error for nil clip")
	}
	if _, err := set.DS0.Transcribe(audio.NewClip(8000, 0)); err == nil {
		t.Fatal("expected error for empty clip")
	}
	wrongRate := audio.NewClip(16000, 1000)
	wrongRate.Samples[0] = 0.5
	for _, rec := range []Recognizer{set.DS0, set.GCS, set.AT, set.KLD} {
		if _, err := rec.Transcribe(wrongRate); err == nil {
			t.Fatalf("%s accepted wrong sample rate", rec.Name())
		}
	}
}

func TestSmoothLabels(t *testing.T) {
	in := []int{1, 1, 2, 1, 1, 3, 3}
	out := SmoothLabels(in)
	want := []int{1, 1, 1, 1, 1, 3, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("SmoothLabels = %v, want %v", out, want)
		}
	}
	// Input must not be mutated.
	if in[2] != 2 {
		t.Fatal("SmoothLabels mutated input")
	}
	short := SmoothLabels([]int{5})
	if len(short) != 1 || short[0] != 5 {
		t.Fatal("short input mishandled")
	}
}

func TestDecoderSegmentsAndDecode(t *testing.T) {
	dec, err := NewDecoder(testLM(t), 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sil := phoneme.SilIndex()
	// "door" = D AO R with plenty of frames, separated by long silence.
	d := phoneme.MustIndex("D")
	ao := phoneme.MustIndex("AO")
	r := phoneme.MustIndex("R")
	labels := []int{sil, sil, sil, sil, d, d, ao, ao, ao, r, r, sil, sil, sil, sil}
	text, err := dec.Decode(labels)
	if err != nil {
		t.Fatal(err)
	}
	if text != "door" {
		t.Fatalf("decoded %q, want %q", text, "door")
	}
	// A 1-frame silence inside a word must not split it.
	labels2 := []int{sil, sil, sil, d, d, sil, ao, ao, ao, r, r, sil, sil, sil}
	text2, err := dec.Decode(labels2)
	if err != nil {
		t.Fatal(err)
	}
	if text2 != "door" {
		t.Fatalf("stop-closure silence split the word: %q", text2)
	}
	if _, err := dec.Decode(nil); err == nil {
		t.Fatal("expected error for empty labels")
	}
	if _, err := NewDecoder(nil, 0.3, 5); err == nil {
		t.Fatal("expected error for nil LM")
	}
}

func TestApplyEnergyGate(t *testing.T) {
	sil := phoneme.SilIndex()
	// 4 frames of 4 samples, hop 4: frames 0,1 loud, frames 2,3 silent.
	samples := []float64{0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0, 0, 0, 0, 0, 0, 0, 0}
	labels := []int{3, 3, 3, 3}
	out := ApplyEnergyGate(labels, samples, 4, 4, 0.1)
	if out[0] != 3 || out[1] != 3 {
		t.Fatalf("loud frames gated: %v", out)
	}
	if out[2] != sil || out[3] != sil {
		t.Fatalf("silent frames not gated: %v", out)
	}
	// Invalid geometry: returns input unchanged.
	same := ApplyEnergyGate(labels, samples, 0, 4, 0.1)
	if &same[0] == &labels[0] {
		t.Log("gate may alias on invalid input; acceptable as long as values match")
	}
	for i := range labels {
		if same[i] != labels[i] {
			t.Fatal("invalid geometry must be a no-op")
		}
	}
}

// TestMLPEngineGradientEndToEnd verifies that TargetLoss's waveform
// gradient matches finite differences through the full engine pipeline
// (MFCC -> context stack -> MLP -> CE). This is the correctness
// foundation of the white-box attack.
func TestMLPEngineGradientEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := dsp.MFCCConfig{
		SampleRate: 8000,
		FrameLen:   64,
		Hop:        32,
		NumFilters: 10,
		NumCoeffs:  6,
		PreEmph:    0.97,
		Window:     dsp.WindowHamming,
		LowHz:      80,
	}
	mfcc, err := dsp.NewMFCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewMLP(rng, 5*6, 8, phoneme.Count())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(testLM(t), 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	eng := &MLPEngine{ID: DS0, SampleRate: 8000, Context: 2, MFCC: mfcc, Net: net, Dec: dec}
	clip := audio.NewClip(8000, 300)
	for i := range clip.Samples {
		clip.Samples[i] = 0.4*math.Sin(2*math.Pi*300*float64(i)/8000) + 0.05*rng.NormFloat64()
	}
	nf := eng.NumFrames(len(clip.Samples))
	targets := make([]int, nf)
	for i := range targets {
		targets[i] = (i*7 + 3) % phoneme.Count()
	}
	loss, grad, err := eng.TargetLoss(clip, targets)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || len(grad) != len(clip.Samples) {
		t.Fatalf("bad loss %g or gradient length %d", loss, len(grad))
	}
	const eps = 1e-5
	for _, idx := range []int{0, 50, 131, 200, 299} {
		perturbed := clip.Clone()
		perturbed.Samples[idx] += eps
		lp, _, err := eng.TargetLoss(perturbed, targets)
		if err != nil {
			t.Fatal(err)
		}
		perturbed.Samples[idx] -= 2 * eps
		lm2, _, err := eng.TargetLoss(perturbed, targets)
		if err != nil {
			t.Fatal(err)
		}
		num := (lp - lm2) / (2 * eps)
		if math.Abs(num-grad[idx]) > 1e-4*(math.Abs(num)+math.Abs(grad[idx])+1) {
			t.Fatalf("sample %d: analytic %g numeric %g", idx, grad[idx], num)
		}
	}
	// Mismatched target length is an error.
	if _, _, err := eng.TargetLoss(clip, targets[:2]); err == nil {
		t.Fatal("expected error for target length mismatch")
	}
}

func TestEvaluateWERErrors(t *testing.T) {
	set := testEngines(t)
	if _, err := EvaluateWER(set.DS0, nil); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}

func TestWeakEngineWithoutCentroids(t *testing.T) {
	mfcc, err := dsp.NewMFCC(dsp.DefaultMFCCConfig(8000))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(testLM(t), 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	e := &WeakEngine{ID: KLD, SampleRate: 8000, MFCC: mfcc, Centroids: make([][]float64, phoneme.Count()), Dec: dec}
	clip := audio.NewClip(8000, 1000)
	for i := range clip.Samples {
		clip.Samples[i] = 0.3 * math.Sin(float64(i))
	}
	if _, err := e.Transcribe(clip); err == nil {
		t.Fatal("expected error for untrained weak engine")
	}
}

func TestDescribe(t *testing.T) {
	set := testEngines(t)
	infos := set.Describe()
	if len(infos) != 5 {
		t.Fatalf("got %d engine infos, want 5 (no CTC in quick set)", len(infos))
	}
	seen := map[EngineID]bool{}
	for _, info := range infos {
		if info.Architecture == "" || info.FrontEnd == "" {
			t.Fatalf("incomplete info %+v", info)
		}
		if info.Parameters <= 0 {
			t.Fatalf("%s reports %d parameters", info.ID, info.Parameters)
		}
		seen[info.ID] = true
	}
	for _, id := range []EngineID{DS0, DS1, GCS, AT, KLD} {
		if !seen[id] {
			t.Fatalf("engine %s missing from Describe", id)
		}
	}
	// The MVP premise: architectures must actually differ.
	if infos[0].Architecture == infos[2].Architecture || infos[2].Architecture == infos[3].Architecture {
		t.Fatal("engine architectures not diverse")
	}
}

// TestEnableQuantizedParity pins the adapter that outlived the int8
// path: nothing is enabled, nothing falls back, and every engine
// transcribes exactly as before, so callers that still pass -quantized
// get the float64 kernels.
func TestEnableQuantizedParity(t *testing.T) {
	set := testEngines(t)
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(set.SampleRate), 4, 424242)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT}
	transcribe := func() (out []string) {
		for _, e := range engines {
			for _, u := range utts {
				text, err := e.Transcribe(u.Clip)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, text)
			}
		}
		return out
	}
	ref := transcribe()
	enabled, fellBack, err := set.EnableQuantized(nil)
	if enabled != nil || fellBack != nil || err != nil {
		t.Fatalf("EnableQuantized = %v, %v, %v; want nil, nil, nil", enabled, fellBack, err)
	}
	got := transcribe()
	set.DisableQuantized()
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("transcription %d changed: %q != %q", i, got[i], ref[i])
		}
	}
}

// TestParametersAreTheDescribedCounts: the work weight the cascade elects
// its leader on is the parameter count Describe reports.
func TestParametersAreTheDescribedCounts(t *testing.T) {
	set := testEngines(t)
	byID := map[EngineID]int{}
	for _, info := range set.Describe() {
		byID[info.ID] = info.Parameters
	}
	for _, e := range []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD} {
		pc, ok := e.(interface{ Parameters() int })
		if !ok {
			t.Fatalf("%s has no Parameters method", e.Name())
		}
		if got := pc.Parameters(); got <= 0 || got != byID[EngineID(e.Name())] {
			t.Errorf("%s: Parameters() %d, Describe %d", e.Name(), got, byID[EngineID(e.Name())])
		}
	}
}
