package audio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzWAVStreamReader hardens the incremental reader and pins it to the
// batch decoder: no panic on arbitrary bytes, accepted payloads stay
// under the byte limit and decode to in-range samples, and whenever both
// accept the same input they must yield the same payload bytes and
// bit-identical samples. The one sanctioned divergence is a declared data
// size of zero: batch takes it literally (an empty payload), streaming
// treats it as "unknown, read to EOF".
func FuzzWAVStreamReader(f *testing.F) {
	valid := func() []byte {
		c := NewClip(8000, 48)
		for i := range c.Samples {
			c.Samples[i] = float64(i%16)/16 - 0.5
		}
		var buf bytes.Buffer
		if err := WriteWAV(&buf, c); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:30])
	f.Add([]byte("RIFF....WAVE"))
	f.Add([]byte{})
	// Unknown-size variants: live encoders write 0 or 0xFFFFFFFF into
	// the data chunk header.
	zeroSize := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(zeroSize[40:44], 0)
	f.Add(zeroSize)
	unkSize := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(unkSize[40:44], 0xFFFFFFFF)
	f.Add(unkSize)
	// Odd declared size exercises the carry byte.
	oddSize := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(oddSize[40:44], 31)
	f.Add(oddSize)

	f.Fuzz(func(t *testing.T, data []byte) {
		const limit = 1 << 20
		sr, err := NewWAVStreamReader(bytes.NewReader(data), limit)
		if err != nil {
			return // rejecting malformed input is fine
		}
		var (
			raw      []byte
			pcm      PCM16Decoder
			streamed []float64
		)
		buf := make([]byte, 257) // odd length straddles sample boundaries
		streamOK := false
		for {
			n, err := sr.Read(buf)
			if n < 0 || n > len(buf) {
				t.Fatalf("Read returned %d bytes into a %d-byte buffer", n, len(buf))
			}
			raw = append(raw, buf[:n]...)
			streamed = pcm.Append(streamed, buf[:n])
			if len(raw) > limit {
				t.Fatalf("streamed %d bytes past a %d-byte limit", len(raw), limit)
			}
			if err == io.EOF {
				streamOK = true
				break
			}
			if err != nil {
				break
			}
		}
		for _, v := range streamed {
			if v < -1.001 || v > 1.001 {
				t.Fatalf("streamed sample %g outside [-1,1]", v)
			}
		}

		batch, batchErr := ReadWAVPCM(bytes.NewReader(data), limit, nil)
		if !streamOK || batchErr != nil {
			return
		}
		// Both accepted: the streaming-equals-batch contract.
		if batch.SampleRate != sr.SampleRate() {
			t.Fatalf("sample rate: stream %d, batch %d", sr.SampleRate(), batch.SampleRate)
		}
		if len(batch.Data) != len(raw) {
			if len(batch.Data) == 0 {
				return // declared size 0: batch literal, stream reads to EOF
			}
			t.Fatalf("payload: stream %d bytes, batch %d", len(raw), len(batch.Data))
		}
		if !bytes.Equal(raw, batch.Data) {
			t.Fatal("payload bytes differ between stream and batch")
		}
		clip := batch.Decode()
		if len(clip.Samples) != len(streamed) {
			t.Fatalf("sample count: stream %d, batch %d", len(streamed), len(clip.Samples))
		}
		for i := range streamed {
			if streamed[i] != clip.Samples[i] {
				t.Fatalf("sample %d: stream %g, batch %g", i, streamed[i], clip.Samples[i])
			}
		}
	})
}
