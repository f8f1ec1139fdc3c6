package asr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mvpears/internal/audio"
	"mvpears/internal/speech"
)

func synthClip(t *testing.T, rate int, text string, seed int64) *audio.Clip {
	t.Helper()
	synth := speech.NewSynthesizer(rate)
	rng := rand.New(rand.NewSource(seed))
	clip, _, err := synth.SynthesizeSentence(text, speech.RandomSpeaker(rng), rng)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func streamChunkSchedules(n int) map[string][]int {
	scheds := map[string][]int{
		"one-sample": nil,
		"whole-clip": {n},
	}
	mk := func(size int) []int {
		var out []int
		for rem := n; rem > 0; {
			c := size
			if c > rem {
				c = rem
			}
			out = append(out, c)
			rem -= c
		}
		return out
	}
	scheds["one-sample"] = mk(1)
	for _, p := range []int{31, 997} {
		if p < n {
			scheds[fmt.Sprintf("prime-%d", p)] = mk(p)
		}
	}
	return scheds
}

// TestEnsembleStreamFinalParity is the transcription half of the
// incremental/batch parity contract: for every engine architecture and
// every chunk schedule, the streamed final transcription must equal the
// batch Transcribe result character for character.
func TestEnsembleStreamFinalParity(t *testing.T) {
	set := testEngines(t)
	clip := synthClip(t, set.SampleRate, "open the door and read the book", 2024)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT, set.KLD}
	want := make([]string, len(engines))
	for i, e := range engines {
		text, err := e.Transcribe(clip)
		if err != nil {
			t.Fatalf("%s: batch transcribe: %v", e.Name(), err)
		}
		want[i] = text
	}
	for schedName, sched := range streamChunkSchedules(len(clip.Samples)) {
		es, err := NewEnsembleStream(engines, set.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		for _, c := range sched {
			if err := es.Push(clip.Samples[off : off+c]); err != nil {
				t.Fatalf("%s: Push: %v", schedName, err)
			}
			off += c
		}
		if err := es.Finalize(); err != nil {
			t.Fatalf("%s: Finalize: %v", schedName, err)
		}
		for i, e := range engines {
			got, err := es.FinalText(context.Background(), i)
			if err != nil {
				t.Fatalf("%s/%s: FinalText: %v", schedName, e.Name(), err)
			}
			if got != want[i] {
				t.Errorf("%s/%s: streamed %q != batch %q", schedName, e.Name(), got, want[i])
			}
		}
	}
}

// TestEnsembleStreamWindows exercises the provisional sliding-window
// transcriptions: every hop position must decode without error
// mid-stream, and on a benign utterance at least one window must carry
// text.
func TestEnsembleStreamWindows(t *testing.T) {
	set := testEngines(t)
	clip := synthClip(t, set.SampleRate, "close the window", 77)
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT}
	es, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	window := set.SampleRate // 1 s
	hop := set.SampleRate / 4
	chunk := 512
	var nonEmpty int
	for off := 0; off < len(clip.Samples); {
		c := chunk
		if off+c > len(clip.Samples) {
			c = len(clip.Samples) - off
		}
		if err := es.Push(clip.Samples[off : off+c]); err != nil {
			t.Fatal(err)
		}
		off += c
	}
	// Sweep every hop position once the clip is fully pushed but not
	// finalized: this is the mid-stream view the session layer sees.
	for pos := window; pos <= es.Total(); pos += hop {
		for i := range engines {
			text, err := es.WindowText(i, pos-window, pos)
			if err != nil {
				t.Fatalf("window [%d,%d) engine %s: %v", pos-window, pos, engines[i].Name(), err)
			}
			if text != "" {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no window produced any text on a benign utterance")
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := es.WindowText(0, 0, window); err == nil {
		t.Fatal("WindowText after Finalize should error")
	}
}

// TestEnsembleStreamValidation pins the error paths.
func TestEnsembleStreamValidation(t *testing.T) {
	set := testEngines(t)
	if _, err := NewEnsembleStream(nil, set.SampleRate); err == nil {
		t.Fatal("empty engine list should error")
	}
	if _, err := NewEnsembleStream([]Recognizer{set.DS0}, set.SampleRate+1); err == nil {
		t.Fatal("sample-rate mismatch should error")
	}
	es, err := NewEnsembleStream([]Recognizer{set.DS0}, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Finalize(); err == nil {
		t.Fatal("finalizing an empty stream should error")
	}
	clip := audio.NewClip(set.SampleRate, 100)
	if err := es.Push(clip.Samples); err != nil {
		t.Fatal(err)
	}
	if _, err := es.FinalText(context.Background(), 0); err == nil {
		t.Fatal("FinalText before Finalize should error")
	}
	if _, err := es.WindowText(0, 50, 200); err == nil {
		t.Fatal("out-of-range window should error")
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := es.Push(clip.Samples); err == nil {
		t.Fatal("Push after Finalize should error")
	}
}
