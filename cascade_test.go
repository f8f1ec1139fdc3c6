package mvpears

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"mvpears/internal/speech"
)

// cascadeCorpus builds a mixed table of benign clips and (where crafting
// succeeds) white-box AEs against the shared system.
func cascadeCorpus(t *testing.T, s *System) (clips []*Clip, kinds []string) {
	t.Helper()
	benign := []struct {
		text string
		seed int64
	}{
		{"the door is open", 1201},
		{"play the music now", 1202},
		{"good morning to you", 1203},
		{"the cat is small", 1204},
		{"we keep the old book here", 1205},
		{"the house is warm today", 1206},
	}
	for _, b := range benign {
		clip, err := s.GenerateSpeech(b.text, b.seed)
		if err != nil {
			t.Fatalf("GenerateSpeech(%q): %v", b.text, err)
		}
		clips = append(clips, clip)
		kinds = append(kinds, "benign")
	}
	hosts := []struct {
		text, target string
		seed         int64
	}{
		{"the dinner was warm and good", "open the front door", 1301},
		{"we keep the old book here", "unlock the device", 1302},
	}
	for _, h := range hosts {
		host, err := s.GenerateSpeech(h.text, h.seed)
		if err != nil {
			t.Fatalf("GenerateSpeech(%q): %v", h.text, err)
		}
		ae, err := s.CraftWhiteBoxAE(host, h.target)
		if err != nil {
			t.Fatalf("CraftWhiteBoxAE: %v", err)
		}
		if !ae.Success {
			continue
		}
		clips = append(clips, ae.AE)
		kinds = append(kinds, "ae")
	}
	return clips, kinds
}

// TestCascadeNoFlip is the tentpole safety property: for every clip in a
// mixed benign/AE table, any clip the full ensemble flags adversarial
// must also be flagged by the cascade — short-circuiting may only ever
// skip work on clips both paths call benign.
func TestCascadeNoFlip(t *testing.T) {
	s := sharedSystem(t)
	t.Cleanup(s.DisableCascade)

	clips, kinds := cascadeCorpus(t, s)

	// Full-ensemble reference verdicts with the cascade off.
	s.DisableCascade()
	full := make([]*Detection, len(clips))
	for i, clip := range clips {
		det, err := s.DetectCtx(context.Background(), clip)
		if err != nil {
			t.Fatalf("full-ensemble Detect clip %d: %v", i, err)
		}
		if det.Cascade != nil {
			t.Fatalf("clip %d: Cascade decision present with cascade disabled", i)
		}
		full[i] = det
	}

	// Auto-calibrated margin, no monitoring samples so every benign
	// short-circuit opportunity is actually taken.
	if err := s.EnableCascade(0, 0); err != nil {
		t.Fatalf("EnableCascade: %v", err)
	}
	st := s.Cascade()
	if !st.Enabled || st.Margin <= 0 || st.Margin > 1 {
		t.Fatalf("cascade status after enable: %+v", st)
	}
	if len(st.EngineOrder) == 0 || len(st.Candidates) == 0 {
		t.Fatalf("cascade calibration missing order/candidates: %+v", st)
	}

	shortCircuits := 0
	for i, clip := range clips {
		det, err := s.DetectCtx(context.Background(), clip)
		if err != nil {
			t.Fatalf("cascade Detect clip %d: %v", i, err)
		}
		c := det.Cascade
		if c == nil {
			t.Fatalf("clip %d: no Cascade decision with cascade enabled", i)
		}
		if full[i].Adversarial && !det.Adversarial {
			t.Errorf("clip %d (%s): full ensemble flags adversarial, cascade says benign (%+v)", i, kinds[i], c)
		}
		if c.ShortCircuit {
			shortCircuits++
			if det.Adversarial {
				t.Errorf("clip %d (%s): short-circuited yet flagged adversarial", i, kinds[i])
			}
			if len(c.EnginesSkipped) == 0 {
				t.Errorf("clip %d: short-circuit with nothing skipped", i)
			}
		} else if len(c.EnginesSkipped) != 0 {
			t.Errorf("clip %d: engines skipped without a short-circuit: %+v", i, c)
		}
		if kinds[i] == "ae" && full[i].Adversarial && c.ShortCircuit {
			t.Errorf("clip %d: known AE short-circuited", i)
		}
	}
	t.Logf("%d/%d clips short-circuited at margin %.4f", shortCircuits, len(clips), st.Margin)
}

// TestCascadeSamplingDeterministic checks the 1-in-N monitoring policy: a
// margin above 1 never short-circuits on its own, and sampleEvery=2 marks
// every second request as a deliberate full-ensemble run.
func TestCascadeSamplingDeterministic(t *testing.T) {
	s := sharedSystem(t)
	t.Cleanup(s.DisableCascade)

	if err := s.EnableCascade(1.5, 2); err != nil {
		t.Fatalf("EnableCascade: %v", err)
	}
	clip, err := s.GenerateSpeech("the same clip again", 1401)
	if err != nil {
		t.Fatalf("GenerateSpeech: %v", err)
	}
	sampled := 0
	for i := 0; i < 4; i++ {
		det, err := s.DetectCtx(context.Background(), clip)
		if err != nil {
			t.Fatalf("Detect #%d: %v", i, err)
		}
		c := det.Cascade
		if c == nil {
			t.Fatalf("Detect #%d: no cascade decision", i)
		}
		if c.ShortCircuit {
			t.Errorf("Detect #%d: short-circuit with margin 1.5", i)
		}
		if c.SampledFull {
			sampled++
		}
	}
	if sampled != 2 {
		t.Errorf("sampled-full runs = %d over 4 requests at 1-in-2, want 2", sampled)
	}

	s.DisableCascade()
	det, err := s.DetectCtx(context.Background(), clip)
	if err != nil {
		t.Fatalf("Detect after disable: %v", err)
	}
	if det.Cascade != nil {
		t.Fatalf("cascade decision still reported after DisableCascade")
	}
}

// TestCascadeConcurrent drives the cascade from several goroutines so the
// race detector covers the scheduler's shared state (sampling counter,
// margin, order).
func TestCascadeConcurrent(t *testing.T) {
	s := sharedSystem(t)
	t.Cleanup(s.DisableCascade)

	if err := s.EnableCascade(0, 3); err != nil {
		t.Fatalf("EnableCascade: %v", err)
	}
	words := []string{"one", "two", "three", "four"}
	clips := make([]*Clip, len(words))
	for i := range clips {
		clip, err := s.GenerateSpeech(fmt.Sprintf("concurrent clip number %s", words[i]), int64(1500+i))
		if err != nil {
			t.Fatalf("GenerateSpeech: %v", err)
		}
		clips[i] = clip
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(clips))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, clip := range clips {
				det, err := s.DetectCtx(context.Background(), clip)
				if err != nil {
					errs <- err
					return
				}
				if det.Cascade == nil {
					errs <- fmt.Errorf("missing cascade decision")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestQuantizedVerdictParity pins the adapter that outlived the int8
// path: EnableQuantized enables nothing, reports nothing, and leaves
// every verdict and transcription in a mixed benign/AE table unchanged.
func TestQuantizedVerdictParity(t *testing.T) {
	s := sharedSystem(t)
	clips, kinds := cascadeCorpus(t, s)

	run := func() (dets []*Detection, txs []map[string]string) {
		for i, clip := range clips {
			det, err := s.DetectCtx(context.Background(), clip)
			if err != nil {
				t.Fatalf("Detect clip %d: %v", i, err)
			}
			tx, err := s.TranscribeAll(clip)
			if err != nil {
				t.Fatalf("TranscribeAll clip %d: %v", i, err)
			}
			dets, txs = append(dets, det), append(txs, tx)
		}
		return dets, txs
	}
	refDet, refTx := run()
	enabled, fellBack, err := s.EnableQuantized()
	if enabled != nil || fellBack != nil || err != nil {
		t.Fatalf("EnableQuantized = %v, %v, %v; want nil, nil, nil", enabled, fellBack, err)
	}
	gotDet, gotTx := run()
	s.DisableQuantized()
	for i := range clips {
		if gotDet[i].Adversarial != refDet[i].Adversarial || !reflect.DeepEqual(gotDet[i].Scores, refDet[i].Scores) {
			t.Errorf("clip %d (%s): verdict changed by EnableQuantized", i, kinds[i])
		}
		if !reflect.DeepEqual(gotTx[i], refTx[i]) {
			t.Errorf("clip %d: transcriptions %v != %v", i, gotTx[i], refTx[i])
		}
	}
}

var (
	artifactOnce sync.Once
	artifactSys  *System
	artifactErr  error
)

// quickArtifact builds the quick-scale system `mvpearsd -bootstrap` trains
// and the benchmark serves (default seeds), once per test binary. Tests
// must not enable anything on it: they Open private copies of its artifact.
func quickArtifact(t *testing.T) *System {
	t.Helper()
	artifactOnce.Do(func() {
		artifactSys, artifactErr = Build(WithQuickScale())
	})
	if artifactErr != nil {
		t.Fatalf("building quick-scale artifact: %v", artifactErr)
	}
	return artifactSys
}

// openCascaded opens the artifact at path and attaches the cascade with
// an auto-calibrated margin and no monitoring samples.
func openCascaded(t *testing.T, path string) *System {
	t.Helper()
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCascade(0, 0); err != nil {
		t.Fatalf("EnableCascade: %v", err)
	}
	return s
}

// TestCascadeDeterministicAcrossBoots: a cascaded verdict is a pure
// function of (artifact, clip, flags). Two boots of one artifact, and a
// third boot of its re-saved copy, elect the same leader at the same
// margin and return bit-identical detections, imputed dimensions
// included — which a wall-clock leader choice could not promise.
func TestCascadeDeterministicAcrossBoots(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "a.gob")
	if err := quickArtifact(t).SaveFile(first); err != nil {
		t.Fatal(err)
	}
	boots := []*System{openCascaded(t, first), openCascaded(t, first)}
	resaved := filepath.Join(dir, "b.gob")
	if err := boots[0].SaveFile(resaved); err != nil {
		t.Fatal(err)
	}
	boots = append(boots, openCascaded(t, resaved))

	want := boots[0].Cascade()
	if lead := want.EngineOrder[0]; lead != "AT" || math.Abs(want.Margin-0.7343) > 5e-5 {
		t.Errorf("quick-scale artifact leads with %s at margin %.4f, want AT at 0.7343\n%s", lead, want.Margin, want)
	}
	for i, s := range boots[1:] {
		if got := s.Cascade(); !reflect.DeepEqual(got, want) {
			t.Fatalf("boot %d: cascade status differs:\n%s\n%s", i+1, got, want)
		}
	}

	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(boots[0].SampleRate()), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for i, u := range utts {
		ref, err := boots[0].DetectCtx(context.Background(), u.Clip)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Cascade.ShortCircuit {
			short++
		}
		for b, s := range boots[1:] {
			got, err := s.DetectCtx(context.Background(), u.Clip)
			if err != nil {
				t.Fatal(err)
			}
			if got.Adversarial != ref.Adversarial || !reflect.DeepEqual(got.Scores, ref.Scores) ||
				!reflect.DeepEqual(got.Cascade, ref.Cascade) || !reflect.DeepEqual(got.Transcriptions, ref.Transcriptions) {
				t.Fatalf("clip %d, boot %d: detection differs:\n%+v %+v\n%+v %+v", i, b+1, got, got.Cascade, ref, ref.Cascade)
			}
		}
	}
	t.Logf("%d/%d clips short-circuited; %s", short, len(utts), want)
}

// TestCascadeNoFlipUnderElectedLeader checks the cascade against the
// full ensemble under the leader the expected-cost rule picks on the
// quick-scale artifact, over a corpus the calibration never saw: 200
// seeded benign utterances plus 8 white-box AEs.
//
// What must hold exactly: every AE gets the full ensemble's verdict;
// every measured (non-imputed) score is the full run's score; a clip the
// cascade does not short-circuit gets the full verdict; a short-circuit
// is always a benign verdict. What the per-engine margin construction
// does NOT give on never-seen audio is agreement on the full ensemble's
// own false alarms: a benign clip DS0 itself mishears can score just
// above the leader's margin and classify benign on the imputed vector
// while the full vector is flagged. That is the cascade's standing
// residual risk under any leader (DESIGN §12); this test is the watch on
// it — such disagreements may only remove a false alarm on a benign clip
// and must stay rare (measured here: 4 of 200, leader scores 0.74–0.76
// against the 0.7343 margin).
func TestCascadeNoFlipUnderElectedLeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.gob")
	if err := quickArtifact(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	full, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	casc := openCascaded(t, path)

	synth := speech.NewSynthesizer(full.SampleRate())
	utts, err := speech.GenerateUtterances(synth, 200, 20260922)
	if err != nil {
		t.Fatal(err)
	}
	clips := make([]*Clip, 0, len(utts)+8)
	for _, u := range utts {
		clips = append(clips, u.Clip)
	}
	hosts, err := speech.GenerateUtterances(synth, 24, 20260923)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hosts {
		if len(clips) == len(utts)+8 {
			break
		}
		res, err := full.CraftWhiteBoxAE(h.Clip, speech.MaliciousCommands[i%len(speech.MaliciousCommands)])
		if err != nil || !res.Success {
			continue // one failed craft is not the property under test
		}
		clips = append(clips, res.AE)
	}
	if aes := len(clips) - len(utts); aes < 8 {
		t.Fatalf("only %d of %d white-box crafts succeeded, want 8", aes, len(hosts))
	}

	short, flagged, falseAlarmsRemoved := 0, 0, 0
	for i, clip := range clips {
		isAE := i >= len(utts)
		want, err := full.DetectCtx(context.Background(), clip)
		if err != nil {
			t.Fatal(err)
		}
		got, err := casc.DetectCtx(context.Background(), clip)
		if err != nil {
			t.Fatal(err)
		}
		c := got.Cascade
		for j, imputed := range c.Imputed {
			//lint:allow floateq a measured score must be the full run's score bit for bit
			if !imputed && got.Scores[j] != want.Scores[j] {
				t.Errorf("clip %d: measured score[%d] %v != full run's %v", i, j, got.Scores[j], want.Scores[j])
			}
		}
		if c.ShortCircuit {
			short++
			if got.Adversarial {
				t.Errorf("clip %d: short-circuited yet flagged", i)
			}
		}
		if want.Adversarial {
			flagged++
		}
		switch {
		case got.Adversarial == want.Adversarial:
		case isAE || !c.ShortCircuit || got.Adversarial:
			t.Errorf("clip %d (AE %v): cascade says adversarial=%v, full ensemble %v (%+v)", i, isAE, got.Adversarial, want.Adversarial, c)
		default:
			falseAlarmsRemoved++
			t.Logf("clip %d: benign clip the full ensemble flags (scores %.3f) short-circuits at leader score %.4f", i, want.Scores, c.FirstScore)
		}
	}
	if max := len(utts) * 3 / 100; falseAlarmsRemoved > max {
		t.Errorf("%d of %d benign clips lost a full-ensemble false alarm to a short-circuit, want at most %d", falseAlarmsRemoved, len(utts), max)
	}
	t.Logf("%d clips (8 AEs): %d short-circuited, %d flagged by the full ensemble, %d false alarms removed; %s",
		len(clips), short, flagged, falseAlarmsRemoved, casc.Cascade())
}
