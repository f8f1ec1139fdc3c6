package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mvpears"
	"mvpears/internal/server"
)

// runCLI runs the command in process, the way main does, and returns its
// exit code and what it wrote to stdout.
func runCLI(t *testing.T, args ...string) (int, []byte) {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	code, err := run(args)
	os.Stdout = stdout
	if err != nil {
		t.Logf("mvpears %v: %v", args, err)
		if code == 0 {
			code = 1
		}
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, b
}

// TestDetect drives `mvpears detect` against an artifact saved from a
// quick-scale Build.
func TestDetect(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.gob")
	built, err := mvpears.Build(mvpears.WithQuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if err := built.SaveFile(model); err != nil {
		t.Fatal(err)
	}
	sys, err := mvpears.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	clip, err := sys.GenerateSpeech("open the front door", 7)
	if err != nil {
		t.Fatal(err)
	}
	benign := filepath.Join(dir, "benign.wav")
	if err := mvpears.SaveWAV(benign, clip); err != nil {
		t.Fatal(err)
	}

	t.Run("json scores match DetectCtx", func(t *testing.T) {
		code, out := runCLI(t, "detect", "-model", model, "-json", benign)
		if code != 0 {
			t.Fatalf("exit %d, want 0:\n%s", code, out)
		}
		var got server.DetectionJSON
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("%v:\n%s", err, out)
		}
		loaded, err := sys.LoadClip(benign)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.DetectCtx(context.Background(), loaded)
		if err != nil {
			t.Fatal(err)
		}
		if got.Adversarial != want.Adversarial || !slices.Equal(got.Scores, want.Scores) {
			t.Fatalf("CLI verdict %v scores %v, in-process %v %v", got.Adversarial, got.Scores, want.Adversarial, want.Scores)
		}
	})

	// Twice the rate, not half: at half the engines' rate everything above
	// 2 kHz is gone, and quick-scale engines then mishear benign speech.
	t.Run("double rate is resampled", func(t *testing.T) {
		double, err := clip.Resample(2 * clip.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "double.wav")
		if err := mvpears.SaveWAV(path, double); err != nil {
			t.Fatal(err)
		}
		if code, out := runCLI(t, "detect", "-model", model, path); code != 0 {
			t.Fatalf("exit %d, want 0:\n%s", code, out)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if code, _ := runCLI(t, "detect", "-model", model, filepath.Join(t.TempDir(), "missing.wav")); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
	})

	t.Run("garbage model is kept", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "bad.gob")
		garbage := []byte("not a model artifact\x00\xff")
		if err := os.WriteFile(bad, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		if code, _ := runCLI(t, "detect", "-quick", "-model", bad, benign); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if got, err := os.ReadFile(bad); err != nil || !bytes.Equal(got, garbage) {
			t.Fatalf("artifact changed: %q (read error %v)", got, err)
		}
	})
}
