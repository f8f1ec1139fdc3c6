package stream

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/detector"
)

// fakeRecognizer hears a fixed text no matter the audio, so window and
// final verdicts are fully controlled by the test.
type fakeRecognizer struct {
	name string
	text string
}

func (f *fakeRecognizer) Name() string                           { return f.name }
func (f *fakeRecognizer) Transcribe(*audio.Clip) (string, error) { return f.text, nil }

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func rows(n int, mean, jitter float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{
			clamp01(mean + rng.NormFloat64()*jitter),
			clamp01(mean + rng.NormFloat64()*jitter),
		}
	}
	return out
}

// testDetector builds a trained detector whose auxiliaries hear auxText.
func testDetector(t *testing.T, auxText string) *detector.Detector {
	t.Helper()
	d, err := detector.New(
		&fakeRecognizer{name: "TGT", text: "open the door"},
		[]asr.Recognizer{
			&fakeRecognizer{name: "A", text: auxText},
			&fakeRecognizer{name: "B", text: auxText},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Train(rows(200, 0.95, 0.03, 1), rows(200, 0.35, 0.08, 2)); err != nil {
		t.Fatal(err)
	}
	return d
}

func testManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func TestManagerBackpressure(t *testing.T) {
	d := testDetector(t, "open the door")
	var rejected int
	m := testManager(t, Config{
		Detector:    d,
		SampleRate:  8000,
		MaxSessions: 2,
		Hooks:       Hooks{SessionRejected: func() { rejected++ }},
	})
	s1, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Open(); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("third session error %v, want ErrTooManySessions", err)
	}
	if rejected != 1 {
		t.Fatalf("rejected hook fired %d times, want 1", rejected)
	}
	s1.Close()
	s1.Close() // idempotent
	if m.OpenSessions() != 1 {
		t.Fatalf("%d open sessions after close, want 1", m.OpenSessions())
	}
	if _, err := m.Open(); err != nil {
		t.Fatalf("slot not reclaimed: %v", err)
	}
	if _, err := s1.Push(context.Background(), make([]float64, 10)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push on closed session: %v, want ErrSessionClosed", err)
	}
}

// TestSessionWindowsAndFinal pins the window geometry and checks the
// final streamed verdict equals the batch detector's on the same clip.
func TestSessionWindowsAndFinal(t *testing.T) {
	d := testDetector(t, "open the door")
	var windows int
	m := testManager(t, Config{
		Detector:   d,
		SampleRate: 8000,
		Window:     8000,
		Hop:        2000,
		Hooks:      Hooks{Window: func(adv, early bool, _ time.Duration) { windows++ }},
	})
	s, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	clip := audio.NewClip(8000, 12000)
	for i := range clip.Samples {
		clip.Samples[i] = 0.2
	}
	ctx := context.Background()
	var got []Window
	for off := 0; off < len(clip.Samples); off += 512 {
		end := off + 512
		if end > len(clip.Samples) {
			end = len(clip.Samples)
		}
		ws, err := s.Push(ctx, clip.Samples[off:end])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ws...)
	}
	// Window edges at 8000, 10000, 12000.
	if len(got) != 3 || windows != 3 {
		t.Fatalf("%d windows (%d hooks), want 3", len(got), windows)
	}
	for i, w := range got {
		wantEnd := 8000 + i*2000
		wantStart := wantEnd - 8000
		if w.Index != i || w.Start != wantStart || w.End != wantEnd {
			t.Fatalf("window %d = [%d,%d) index %d, want [%d,%d) index %d",
				i, w.Start, w.End, w.Index, wantStart, wantEnd, i)
		}
		if w.Adversarial || w.EarlyExit {
			t.Fatalf("identical texts flagged adversarial: %+v", w)
		}
		if len(w.Scores) != 2 || len(w.Aux) != 2 {
			t.Fatalf("window carries %d scores / %d aux texts, want 2/2", len(w.Scores), len(w.Aux))
		}
	}
	fin, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Detect(ctx, clip)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Decision.Adversarial != want.Adversarial {
		t.Fatalf("streamed verdict %v, batch %v", fin.Decision.Adversarial, want.Adversarial)
	}
	for i := range want.Scores {
		if fin.Decision.Scores[i] != want.Scores[i] {
			t.Fatalf("score %d: streamed %v, batch %v", i, fin.Decision.Scores[i], want.Scores[i])
		}
	}
	if fin.Windows != 3 || fin.EarlyExit != nil {
		t.Fatalf("final reports %d windows, earlyExit=%v", fin.Windows, fin.EarlyExit)
	}
	if fin.Duration != 1500*time.Millisecond {
		t.Fatalf("duration %v, want 1.5s", fin.Duration)
	}
	if len(fin.Samples) != 12000 {
		t.Fatalf("final carries %d samples, want 12000", len(fin.Samples))
	}
	if _, err := s.Finish(ctx); err == nil {
		t.Fatal("second Finish should error")
	}
	if m.OpenSessions() != 0 {
		// Finish detaches asynchronously; give it a moment.
		time.Sleep(50 * time.Millisecond)
		if m.OpenSessions() != 0 {
			t.Fatalf("%d sessions open after Finish, want 0", m.OpenSessions())
		}
	}
}

// TestSessionEarlyExit drives an adversarial session: auxiliaries hear
// something else entirely, scores sit below the floors, and the session
// must flag after MinWindows consecutive offending windows — well before
// end-of-stream.
func TestSessionEarlyExit(t *testing.T) {
	d := testDetector(t, "completely different words")
	m := testManager(t, Config{
		Detector:   d,
		SampleRate: 8000,
		Window:     8000,
		Hop:        2000,
		Floors:     []float64{0.9, 0.9},
		MinWindows: 2,
	})
	s, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	samples := make([]float64, 24000)
	var got []Window
	for off := 0; off < len(samples); off += 1000 {
		ws, err := s.Push(ctx, samples[off:off+1000])
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ws...)
	}
	// Edges at 8000 and 10000 are the two offending windows; the flag
	// lands on the second and no further windows are evaluated.
	if len(got) != 2 {
		t.Fatalf("%d windows, want 2 (early exit should stop evaluation)", len(got))
	}
	last := got[len(got)-1]
	if !last.EarlyExit || !last.Adversarial {
		t.Fatalf("last window not flagged: %+v", last)
	}
	if !s.Flagged() {
		t.Fatal("session not flagged")
	}
	fin, err := s.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fin.EarlyExit == nil {
		t.Fatal("final lost the early-exit flag")
	}
	if fin.EarlyExit.Window != 1 || fin.EarlyExit.Score >= fin.EarlyExit.Floor {
		t.Fatalf("early exit = %+v", fin.EarlyExit)
	}
	if want := SampleDuration(10000, 8000); fin.EarlyExit.AudioTime != want {
		t.Fatalf("audio time at flag %v, want %v", fin.EarlyExit.AudioTime, want)
	}
	if !fin.Decision.Adversarial {
		t.Fatal("final whole-clip verdict should also be adversarial")
	}
}

func TestSessionLimitsAndEviction(t *testing.T) {
	d := testDetector(t, "open the door")
	evicted := make(chan bool, 4)
	m := testManager(t, Config{
		Detector:    d,
		SampleRate:  8000,
		IdleTimeout: 300 * time.Millisecond,
		MaxDuration: time.Second,
		Hooks:       Hooks{SessionClosed: func(ev bool) { evicted <- ev }},
	})
	s, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	// MaxDuration bounds the buffered audio.
	if _, err := s.Push(context.Background(), make([]float64, 8001)); !errors.Is(err, ErrTooLong) {
		t.Fatalf("oversized push error %v, want ErrTooLong", err)
	}
	// An idle session is evicted by the janitor.
	select {
	case ev := <-evicted:
		if !ev {
			t.Fatal("eviction hook reported a clean close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("idle session never evicted")
	}
	if _, err := s.Push(context.Background(), make([]float64, 10)); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Push on evicted session error %v, want ErrSessionClosed", err)
	}
	if m.OpenSessions() != 0 {
		t.Fatalf("%d sessions after eviction, want 0", m.OpenSessions())
	}
}

func TestConfigValidation(t *testing.T) {
	d := testDetector(t, "open the door")
	if _, err := NewManager(Config{SampleRate: 8000}); err == nil {
		t.Fatal("nil detector accepted")
	}
	if _, err := NewManager(Config{Detector: d}); err == nil {
		t.Fatal("zero sample rate accepted")
	}
	if _, err := NewManager(Config{Detector: d, SampleRate: 8000, Floors: []float64{0.5}}); err == nil {
		t.Fatal("floor/auxiliary count mismatch accepted")
	}
	if _, err := NewManager(Config{Detector: d, SampleRate: 8000, Hop: -1, Window: 100}); err == nil {
		t.Fatal("negative hop accepted")
	}
}
