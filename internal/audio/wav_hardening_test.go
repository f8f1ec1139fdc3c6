package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// validWAV renders a small valid 16-bit mono PCM WAV for mutation.
func validWAV(t *testing.T, rate, n int) []byte {
	t.Helper()
	c := NewClip(rate, n)
	for i := range c.Samples {
		c.Samples[i] = float64(i%32)/32 - 0.5
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mutate returns a copy of b with the bytes at off replaced.
func mutate(b []byte, off int, repl ...byte) []byte {
	out := append([]byte(nil), b...)
	copy(out[off:], repl)
	return out
}

// TestReadWAVCorruptHeaders exercises the decoder against a table of
// malformed inputs: every rejection must carry the right typed error and
// must never panic or over-allocate.
func TestReadWAVCorruptHeaders(t *testing.T) {
	valid := validWAV(t, 8000, 64)
	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return b[:]
	}
	u16 := func(v uint16) []byte {
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], v)
		return b[:]
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrNotWAV},
		{"too short for riff header", []byte("RIFF"), ErrNotWAV},
		{"wrong riff magic", mutate(valid, 0, 'X', 'I', 'F', 'F'), ErrNotWAV},
		{"wrong wave magic", mutate(valid, 8, 'W', 'A', 'V', 'X'), ErrNotWAV},
		{"no data chunk", valid[:12], ErrMalformed},
		{"truncated chunk header", valid[:14], ErrTruncated},
		{"fmt chunk truncated", valid[:20], ErrTruncated},
		// fmt size 8: too short to hold the PCM header fields.
		{"fmt chunk too short", mutate(mutate(valid, 16, u32(8)...)[:28], 24, []byte("data")...), ErrMalformed},
		// fmt size 2 GiB: must be rejected before any allocation.
		{"fmt chunk absurdly large", mutate(valid, 16, u32(1<<31)...), ErrMalformed},
		{"non-pcm format code", mutate(valid, 20, u16(3)...), ErrUnsupported},
		{"stereo", mutate(valid, 22, u16(2)...), ErrUnsupported},
		{"zero channels", mutate(valid, 22, u16(0)...), ErrUnsupported},
		{"zero sample rate", mutate(valid, 24, u32(0)...), ErrMalformed},
		{"8-bit depth", mutate(valid, 34, u16(8)...), ErrUnsupported},
		{"data before fmt", append(append([]byte("RIFFxxxxWAVE"), "data"...), u32(4)...), ErrMalformed},
		// data chunk claims 256 MiB but the stream ends immediately: the
		// decoder must fail on the bytes present, not allocate 256 MiB.
		{"data size lies huge", mutate(valid, 40, u32(256<<20)...), ErrTruncated},
		{"data payload truncated", valid[:len(valid)-10], ErrTruncated},
		{"unknown chunk truncated", append(append(append([]byte(nil), valid[:12]...), "LISTxxxx"...), 0xFF), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clip, err := ReadWAV(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("accepted corrupt input: %+v", clip)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
}

func TestReadWAVPCMLimit(t *testing.T) {
	valid := validWAV(t, 8000, 64) // 128-byte payload
	if _, err := ReadWAVPCM(bytes.NewReader(valid), 128, nil); err != nil {
		t.Fatalf("payload at the limit rejected: %v", err)
	}
	_, err := ReadWAVPCM(bytes.NewReader(valid), 127, nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v, want ErrTooLarge", err)
	}
	// Unlimited mode must still accept.
	if _, err := ReadWAVPCM(bytes.NewReader(valid), 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadWAVOddChunkPadding(t *testing.T) {
	valid := validWAV(t, 8000, 16)
	// Splice an odd-sized LIST chunk (+ its pad byte) between fmt and data.
	var spliced bytes.Buffer
	spliced.Write(valid[:36])
	spliced.WriteString("LIST")
	spliced.Write([]byte{3, 0, 0, 0})
	spliced.Write([]byte{'a', 'b', 'c', 0}) // 3 payload bytes + pad
	spliced.Write(valid[36:])
	clip, err := ReadWAV(&spliced)
	if err != nil {
		t.Fatal(err)
	}
	if len(clip.Samples) != 16 {
		t.Fatalf("got %d samples, want 16", len(clip.Samples))
	}
}
