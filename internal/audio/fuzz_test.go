package audio

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadWAV hardens the RIFF parser against malformed input: it must
// never panic, and anything it accepts must round-trip through WriteWAV.
// Every input is also decoded the way the server decodes uploads: through
// ReadWAVPCM into one scratch buffer reused across inputs and filled with
// garbage beforehand, which must give the bytes and the error class of a
// decode into fresh memory.
func FuzzReadWAV(f *testing.F) {
	// Seed corpus: a valid tiny WAV and some truncations/mutations.
	valid := func() []byte {
		c := NewClip(8000, 32)
		for i := range c.Samples {
			c.Samples[i] = float64(i%16) / 16
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, c); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:20])
	f.Add([]byte("RIFF....WAVE"))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[22] = 2 // stereo
	f.Add(mutated)
	var scratch []byte
	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		want, wantErr := ReadWAVPCM(bytes.NewReader(data), limit, nil)
		scratch = scratch[:cap(scratch)]
		for i := range scratch {
			scratch[i] = 0xA5
		}
		got, gotErr := ReadWAVPCM(bytes.NewReader(data), limit, scratch[:0])
		if errClass(gotErr) != errClass(wantErr) {
			t.Fatalf("reused scratch: error %v, fresh decode: %v", gotErr, wantErr)
		}
		if gotErr == nil {
			if got.SampleRate != want.SampleRate || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("reused scratch decoded %d Hz / %d bytes, fresh %d Hz / %d bytes",
					got.SampleRate, len(got.Data), want.SampleRate, len(want.Data))
			}
			scratch = got.Data
		}

		clip, err := ReadWAV(bytes.NewReader(data))
		if err != nil {
			return // rejecting malformed input is fine
		}
		if clip.SampleRate < 0 {
			t.Fatalf("accepted negative sample rate %d", clip.SampleRate)
		}
		for _, v := range clip.Samples {
			if v < -1.001 || v > 1.001 {
				t.Fatalf("decoded sample %g outside [-1,1]", v)
			}
		}
		// Accepted input must re-encode cleanly.
		if clip.SampleRate > 0 {
			var buf bytes.Buffer
			if err := WriteWAV(&buf, clip); err != nil {
				t.Fatalf("re-encode of accepted clip failed: %v", err)
			}
		}
	})
}

// errClass names the typed decode error err wraps: "" for nil, "untyped"
// for an error wrapping none of them.
func errClass(err error) string {
	if err == nil {
		return ""
	}
	for _, typed := range []error{ErrNotWAV, ErrUnsupported, ErrTruncated, ErrMalformed, ErrTooLarge} {
		if errors.Is(err, typed) {
			return typed.Error()
		}
	}
	return "untyped"
}
