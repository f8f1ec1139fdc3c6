package mvpears

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mvpears/internal/obs"
)

var (
	sysOnce sync.Once
	sys     *System
	sysErr  error
)

// sharedSystem builds one quick-scale trained system for the whole test
// binary.
func sharedSystem(t *testing.T) *System {
	t.Helper()
	sysOnce.Do(func() {
		sys, sysErr = Build(WithQuickScale(), WithSeed(1))
	})
	if sysErr != nil {
		t.Fatalf("building system: %v", sysErr)
	}
	return sys
}

func TestBuildOptionsValidation(t *testing.T) {
	if _, err := Build(WithQuickScale(), WithAuxiliaries()); err == nil {
		t.Fatal("expected error for empty auxiliaries")
	}
	if _, err := Build(WithQuickScale(), WithAuxiliaries(DS0)); err == nil {
		t.Fatal("expected error for DS0 as auxiliary")
	}
	if _, err := Build(WithQuickScale(), WithClassifier("nope")); err == nil {
		t.Fatal("expected error for unknown classifier")
	}
	if _, err := Build(WithQuickScale(), WithDatasetScale(0, 1, 1)); err == nil {
		t.Fatal("expected error for zero benign scale")
	}
}

func TestDetectBenignAndAE(t *testing.T) {
	s := sharedSystem(t)
	benign, err := s.GenerateSpeech("the door is open", 123)
	if err != nil {
		t.Fatal(err)
	}
	det, err := s.DetectCtx(context.Background(), benign)
	if err != nil {
		t.Fatal(err)
	}
	if det.Adversarial {
		t.Error("benign speech flagged as adversarial")
	}
	if len(det.Scores) != 3 {
		t.Fatalf("score width %d", len(det.Scores))
	}
	if len(det.Transcriptions) != 4 {
		t.Fatalf("expected 4 transcriptions, got %d", len(det.Transcriptions))
	}
	if det.Timing.Recognition <= 0 {
		t.Error("timing not populated")
	}
	// Craft a fresh white-box AE and detect it. The host seed is picked so
	// the quick-scale attack yields an AE that does not transfer to the
	// auxiliaries (a transferred AE is undetectable by construction);
	// attack outcomes at this scale re-roll with any last-bit DSP change.
	host, err := s.GenerateSpeech("we keep the old book here", 323)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := s.CraftWhiteBoxAE(host, "open the front door")
	if err != nil {
		t.Fatal(err)
	}
	if !ae.Success {
		t.Skip("white-box attack failed on this host at quick scale")
	}
	det, err = s.DetectCtx(context.Background(), ae.AE)
	if err != nil {
		t.Fatal(err)
	}
	if !det.Adversarial {
		t.Error("freshly crafted AE not detected")
	}
	if det.Transcriptions["DS0"] != "open the front door" {
		t.Errorf("target transcription %q", det.Transcriptions["DS0"])
	}
}

func TestTranscribeAllAgreesOnBenign(t *testing.T) {
	s := sharedSystem(t)
	clip, err := s.GenerateSpeech("play the music now", 55)
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.TranscribeAll(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("got %d transcriptions", len(all))
	}
	v, err := s.FeatureVector(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	for i, score := range v {
		if score < 0.5 {
			t.Errorf("benign similarity score %d suspiciously low: %g (%v)", i, score, all)
		}
	}
}

func TestDetectFileRoundTrip(t *testing.T) {
	s := sharedSystem(t)
	clip, err := s.GenerateSpeech("the cat is small", 77)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "benign.wav")
	if err := SaveWAV(path, clip); err != nil {
		t.Fatal(err)
	}
	clip, err = s.LoadClip(path)
	if err != nil {
		t.Fatal(err)
	}
	det, err := s.DetectCtx(context.Background(), clip)
	if err != nil {
		t.Fatal(err)
	}
	if det.Adversarial {
		t.Error("benign WAV flagged")
	}
	if _, err := s.LoadClip(filepath.Join(t.TempDir(), "missing.wav")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestDetectFileResamples(t *testing.T) {
	s := sharedSystem(t)
	clip, err := s.GenerateSpeech("good morning", 88)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := clip.Resample(16000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hi.wav")
	if err := SaveWAV(path, hi); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadClip(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetectCtx(context.Background(), back); err != nil {
		t.Fatalf("16 kHz WAV should be resampled and accepted: %v", err)
	}
}

func TestCraftBlackBoxAndNonTargeted(t *testing.T) {
	s := sharedSystem(t)
	host, err := s.GenerateSpeech("the dinner was warm and good", 99)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := s.CraftBlackBoxAE(host, "open door", 5)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Success {
		got, err := s.Transcribe(bb.AE)
		if err != nil {
			t.Fatal(err)
		}
		if got != "open door" {
			t.Errorf("black-box AE transcribes as %q", got)
		}
	}
	if _, err := s.CraftBlackBoxAE(host, "open the front door", 5); err == nil {
		t.Fatal("expected error for >2-word black-box payload")
	}
	nt, ok, err := s.CraftNonTargetedAE(host, 5)
	if err != nil {
		t.Fatal(err)
	}
	if nt == nil {
		t.Fatal("non-targeted attack returned nil clip")
	}
	_ = ok
}

func TestThresholdDetectorAPI(t *testing.T) {
	s := sharedSystem(t)
	benign := make([]*Clip, 0, 10)
	for i := 0; i < 10; i++ {
		clip, err := s.GenerateSpeech("the house is warm today", int64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		benign = append(benign, clip)
	}
	td, err := s.CalibrateThreshold(AT, benign, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if td.Threshold() <= 0 || td.Threshold() > 1 {
		t.Fatalf("threshold %g", td.Threshold())
	}
	flagged, score, err := td.Detect(benign[0])
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Errorf("benign clip flagged (score %.3f, threshold %.3f)", score, td.Threshold())
	}
	if _, err := s.CalibrateThreshold(DS0, benign, 0.1); err == nil {
		t.Fatal("expected error for DS0 as auxiliary")
	}
	if _, err := s.CalibrateThreshold(AT, nil, 0.1); err == nil {
		t.Fatal("expected error for no calibration clips")
	}
}

func TestTrainProactive(t *testing.T) {
	s := sharedSystem(t)
	if err := s.TrainProactive(); err != nil {
		t.Fatal(err)
	}
	// The proactively trained system must still pass benign audio and
	// must flag a hypothetical transferable AE pattern: high DS1 score
	// (fooled), low GCS/AT scores.
	pred, err := s.Classifier().Predict([]float64{0.97, 0.45, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 1 {
		t.Error("hypothetical Type-1 MAE vector not flagged")
	}
	pred, err = s.Classifier().Predict([]float64{0.97, 0.96, 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0 {
		t.Error("benign vector flagged after proactive training")
	}
	// Restore the standard detector for other tests.
	if err := s.TrainDetector(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	s := sharedSystem(t)
	if s.SampleRate() != 8000 {
		t.Fatalf("sample rate %d", s.SampleRate())
	}
	names := s.AuxiliaryNames()
	if len(names) != 3 || names[0] != "DS1" || names[1] != "GCS" || names[2] != "AT" {
		t.Fatalf("auxiliaries %v", names)
	}
}

func TestWithoutTraining(t *testing.T) {
	s, err := Build(WithQuickScale(), WithoutTraining())
	if err != nil {
		t.Fatal(err)
	}
	clip, err := s.GenerateSpeech("hello", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DetectCtx(context.Background(), clip); err == nil {
		t.Fatal("expected error detecting with untrained classifier")
	}
	if err := s.TrainDetector(); err == nil {
		t.Fatal("expected error training without a dataset")
	}
	if _, err := s.Transcribe(clip); err != nil {
		t.Fatalf("transcription must work without training: %v", err)
	}
}

func TestWithCTCAuxiliary(t *testing.T) {
	s, err := Build(WithQuickScale(), WithCTCAuxiliary(), WithoutTraining())
	if err != nil {
		t.Fatal(err)
	}
	names := s.AuxiliaryNames()
	if len(names) != 4 || names[3] != "DS2" {
		t.Fatalf("auxiliaries %v, want DS2 appended", names)
	}
	clip, err := s.GenerateSpeech("open the door", 5)
	if err != nil {
		t.Fatal(err)
	}
	all, err := s.TranscribeAll(clip)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := all["DS2"]; !ok {
		t.Fatal("DS2 did not transcribe")
	}
}

// TestDetectBatchCtxMatchesDetectCtx asserts the batch call answers every
// clip exactly as the single call does — verdict, scores, transcriptions,
// explanation and cascade provenance — with the cascade off and on.
func TestDetectBatchCtxMatchesDetectCtx(t *testing.T) {
	s := sharedSystem(t)
	t.Cleanup(s.DisableCascade)
	clips, kinds := cascadeCorpus(t, s)
	if !slices.Contains(kinds, "ae") {
		t.Fatal("no white-box attack in the corpus succeeded: the table has no AE")
	}
	ctx := obs.WithExplain(context.Background())
	for _, cascade := range []bool{false, true} {
		s.DisableCascade()
		if cascade {
			if err := s.EnableCascade(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		batch, err := s.DetectBatchCtx(ctx, clips)
		if err != nil {
			t.Fatal(err)
		}
		for i, clip := range clips {
			want, err := s.DetectCtx(ctx, clip)
			if err != nil {
				t.Fatal(err)
			}
			got := batch[i]
			if got.Adversarial != want.Adversarial || !slices.Equal(got.Scores, want.Scores) ||
				!reflect.DeepEqual(got.Transcriptions, want.Transcriptions) {
				t.Errorf("cascade %v, %s clip %d: batch %v %v %v, single %v %v %v", cascade, kinds[i], i,
					got.Adversarial, got.Scores, got.Transcriptions, want.Adversarial, want.Scores, want.Transcriptions)
			}
			if got.Explanation == nil || want.Explanation == nil || !reflect.DeepEqual(*got.Explanation, *want.Explanation) {
				t.Errorf("cascade %v, clip %d: batch explanation %+v, single %+v", cascade, i, got.Explanation, want.Explanation)
			}
			if (got.Cascade == nil) != !cascade || (want.Cascade == nil) != !cascade ||
				(cascade && !slices.Equal(got.Cascade.EnginesRun, want.Cascade.EnginesRun)) {
				t.Errorf("cascade %v, clip %d: batch provenance %+v, single %+v", cascade, i, got.Cascade, want.Cascade)
			}
			if got.Timing.Recognition <= 0 || want.Timing.Recognition <= 0 {
				t.Errorf("cascade %v, clip %d: recognition time batch %v, single %v", cascade, i, got.Timing.Recognition, want.Timing.Recognition)
			}
		}
	}
}
