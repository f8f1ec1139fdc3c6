package mvpears

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func TestSystemSaveOpenRoundTrip(t *testing.T) {
	s := sharedSystem(t)
	path := filepath.Join(t.TempDir(), "models", "system.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SampleRate() != s.SampleRate() {
		t.Fatalf("sample rate %d, want %d", loaded.SampleRate(), s.SampleRate())
	}
	names := loaded.AuxiliaryNames()
	if len(names) != 3 {
		t.Fatalf("auxiliaries %v", names)
	}
	// Same verdicts on fresh audio.
	benign, err := s.GenerateSpeech("the music is loud", 777)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := s.DetectCtx(context.Background(), benign)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := loaded.DetectCtx(context.Background(), benign)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Adversarial != d2.Adversarial {
		t.Fatalf("verdict changed after round trip: %v vs %v", d1.Adversarial, d2.Adversarial)
	}
	for i := range d1.Scores {
		if d1.Scores[i] != d2.Scores[i] {
			t.Fatalf("scores changed: %v vs %v", d1.Scores, d2.Scores)
		}
	}
}

func TestModelFingerprintStableAcrossLoads(t *testing.T) {
	s := sharedSystem(t)
	path := filepath.Join(t.TempDir(), "system.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	want := hex.EncodeToString(sum[:])
	// Two independent loads of the same artifact (two daemon restarts)
	// carry the hash of the file bytes — verdict-cache keys survive
	// restarts because both daemons derive the same model fingerprint.
	for i := 0; i < 2; i++ {
		loaded, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := loaded.ModelFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != want {
			t.Fatalf("load %d fingerprint %s, want hash of artifact bytes %s", i, fp, want)
		}
	}
	// The in-process fingerprint is stable: repeated calls agree even
	// though re-encoding the system could produce different bytes.
	fp1, err := s.ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := s.ModelFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("in-process fingerprint changed: %s vs %s", fp1, fp2)
	}
}

func TestModelFingerprintRequiresTraining(t *testing.T) {
	s, err := Build(WithQuickScale(), WithoutTraining())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ModelFingerprint(); err == nil {
		t.Fatal("expected error fingerprinting an untrained system")
	}
}

func TestSystemSaveRequiresTraining(t *testing.T) {
	s, err := Build(WithQuickScale(), WithoutTraining())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err == nil {
		t.Fatal("expected error saving untrained system")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}
