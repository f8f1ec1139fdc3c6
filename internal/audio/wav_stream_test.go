package audio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// readAllStream drains a WAVStreamReader with the given per-call read
// buffer size in bytes and decodes what it read.
func readAllStream(t *testing.T, data []byte, bufSize int, maxBytes int64) ([]float64, error) {
	t.Helper()
	w, err := NewWAVStreamReader(bytes.NewReader(data), maxBytes)
	if err != nil {
		return nil, err
	}
	return drainStream(w, bufSize)
}

// drainStream reads w to its end through a bufSize-byte buffer, decoding
// the bytes as the server's stream paths do.
func drainStream(w *WAVStreamReader, bufSize int) ([]float64, error) {
	var (
		pcm PCM16Decoder
		all []float64
	)
	buf := make([]byte, bufSize)
	for {
		n, err := w.Read(buf)
		all = pcm.Append(all, buf[:n])
		if err == io.EOF {
			return all, nil
		}
		if err != nil {
			return all, err
		}
	}
}

// TestWAVStreamReaderParity checks the incremental reader yields the exact
// samples of the batch decoder for every read size, odd ones splitting
// samples.
func TestWAVStreamReaderParity(t *testing.T) {
	valid := validWAV(t, 8000, 347)
	want, err := ReadWAV(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	for _, bufSize := range []int{1, 7, 64, 347, 1000} {
		got, err := readAllStream(t, valid, bufSize, 0)
		if err != nil {
			t.Fatalf("buf %d: %v", bufSize, err)
		}
		if len(got) != len(want.Samples) {
			t.Fatalf("buf %d: %d samples, want %d", bufSize, len(got), len(want.Samples))
		}
		for i := range got {
			if got[i] != want.Samples[i] {
				t.Fatalf("buf %d: sample %d = %v, want %v", bufSize, i, got[i], want.Samples[i])
			}
		}
	}

	// HTTP bodies and io.Pipe surface io.EOF together with the final data
	// read; a payload completing exactly at that EOF is whole, not
	// truncated.
	w, err := NewWAVStreamReader(iotest.DataErrReader(bytes.NewReader(valid)), 0)
	if err != nil {
		t.Fatal(err)
	}
	all, err := drainStream(w, 200)
	if err != nil {
		t.Fatalf("data+EOF reader: %v", err)
	}
	if len(all) != len(want.Samples) {
		t.Fatalf("data+EOF reader: %d samples, want %d", len(all), len(want.Samples))
	}

	// The reader keeps io.Reader's contract over the payload bytes.
	w, err = NewWAVStreamReader(bytes.NewReader(valid), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := iotest.TestReader(w, valid[44:]); err != nil {
		t.Fatal(err)
	}
}

// TestWAVStreamReaderUnknownSize covers live encoders that write 0 or
// 0xFFFFFFFF for the data size: the payload runs to EOF.
func TestWAVStreamReaderUnknownSize(t *testing.T) {
	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return b[:]
	}
	valid := validWAV(t, 8000, 64)
	for _, size := range []uint32{0, 0xFFFFFFFF} {
		got, err := readAllStream(t, mutate(valid, 40, u32(size)...), 33, 0)
		if err != nil {
			t.Fatalf("size %#x: %v", size, err)
		}
		if len(got) != 64 {
			t.Fatalf("size %#x: %d samples, want 64", size, len(got))
		}
	}
	// The size limit still applies to unknown-length streams, byte by byte.
	_, err := readAllStream(t, mutate(valid, 40, u32(0)...), 33, 64)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v, want ErrTooLarge", err)
	}
}

// TestWAVCorruptStreams is the corrupted-chunked-upload table: for both
// the batch decoder and the incremental reader, a data chunk length that
// disagrees with the bytes actually received must surface the right
// typed error — never a short-read verdict computed on partial audio.
func TestWAVCorruptStreams(t *testing.T) {
	valid := validWAV(t, 8000, 64) // 128-byte payload at offset 44
	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return b[:]
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		// The declared size overstates the body: the upload died mid-chunk.
		{"upload truncated mid-body", valid[:len(valid)-10], ErrTruncated},
		{"upload truncated to one byte of payload", valid[:45], ErrTruncated},
		// The declared size understates the body: trailing raw PCM is a
		// corrupted length field, not a trailing metadata chunk.
		{"data size understates body", mutate(valid, 40, u32(100)...), ErrMalformed},
		{"data size understates body by odd count", mutate(valid, 40, u32(99)...), ErrMalformed},
		{"few dangling bytes after payload", append(append([]byte(nil), valid...), 0x00, 0x08, 0x00), ErrMalformed},
		// A trailing chunk that is itself truncated.
		{"trailing chunk truncated", append(append(append([]byte(nil), valid...), "LIST"...), u32(64)...), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadWAV(bytes.NewReader(tc.data)); !errors.Is(err, tc.want) {
				t.Errorf("ReadWAV error %v, want errors.Is(err, %v)", err, tc.want)
			}
			if _, err := readAllStream(t, tc.data, 32, 0); !errors.Is(err, tc.want) {
				t.Errorf("stream error %v, want errors.Is(err, %v)", err, tc.want)
			}
		})
	}
	// Legal trailing metadata still decodes.
	withList := append(append(append([]byte(nil), valid...), "LIST"...), u32(4)...)
	withList = append(withList, 'I', 'N', 'F', 'O')
	if clip, err := ReadWAV(bytes.NewReader(withList)); err != nil || len(clip.Samples) != 64 {
		t.Errorf("trailing LIST chunk rejected: %v", err)
	}
	if got, err := readAllStream(t, withList, 32, 0); err != nil || len(got) != 64 {
		t.Errorf("stream with trailing LIST chunk rejected: %v", err)
	}
}

// failReader returns its error after the prefix is drained — standing in
// for a transport limit (http.MaxBytesReader) tripping mid-body.
type failReader struct {
	data []byte
	err  error
}

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestWAVTransportErrorPreserved pins the multi-%w contract: a transport
// error mid-body stays matchable through the ErrTruncated wrap, so the
// server can map a tripped byte limit to 413 instead of 400.
func TestWAVTransportErrorPreserved(t *testing.T) {
	valid := validWAV(t, 8000, 64)
	cause := errors.New("request body too large")
	_, err := ReadWAV(&failReader{data: valid[:len(valid)-10], err: cause})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("error %v, want ErrTruncated", err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("transport cause lost through the wrap: %v", err)
	}
	w, err := NewWAVStreamReader(&failReader{data: valid[:len(valid)-10], err: cause}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = drainStream(w, 512); !errors.Is(err, ErrTruncated) || !errors.Is(err, cause) {
		t.Fatalf("stream error %v, want ErrTruncated wrapping the transport cause", err)
	}
}

// TestPCM16Decoder pins the carry decoder against the WAV decode mapping
// for every split of the payload into two chunks, odd offsets included,
// and for a one-byte-at-a-time feed.
func TestPCM16Decoder(t *testing.T) {
	valid := validWAV(t, 8000, 32)
	want, err := ReadWAV(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	pcm := valid[44:]
	check := func(name string, got []float64) {
		t.Helper()
		if len(got) != len(want.Samples) {
			t.Fatalf("%s: %d samples, want %d", name, len(got), len(want.Samples))
		}
		for i := range got {
			if got[i] != want.Samples[i] {
				t.Fatalf("%s: sample %d = %v, want %v", name, i, got[i], want.Samples[i])
			}
		}
	}
	for cut := 0; cut <= len(pcm); cut++ {
		var d PCM16Decoder
		check(fmt.Sprintf("split at %d", cut), d.Append(d.Append(nil, pcm[:cut]), pcm[cut:]))
	}
	var d PCM16Decoder
	var got []float64
	for i := range pcm {
		got = d.Append(got, pcm[i:i+1])
	}
	check("byte by byte", got)
}
