package audio

import (
	"encoding/binary"
	"fmt"
	"io"
)

// unknownDataSize is the conventional "size not known yet" marker some
// live encoders write into the data chunk header (alongside 0): the
// payload then runs to EOF.
const unknownDataSize = 0xFFFFFFFF

// WAVStreamReader reads a 16-bit mono PCM WAV stream incrementally: the
// header is parsed up front, then Read surfaces the data chunk's raw PCM
// bytes as the body arrives — the reader for live uploads, where waiting
// for the full payload would defeat streaming detection. Decoding the
// bytes to samples is the caller's (PCM16Decoder).
//
// A declared data size of 0 or 0xFFFFFFFF means "unknown until EOF"
// (live encoders cannot know the length when they emit the header); the
// payload then runs to end of stream. A known size is enforced both
// ways: a stream that ends early fails with ErrTruncated, and trailing
// bytes that are not well-formed RIFF chunks fail with ErrMalformed.
type WAVStreamReader struct {
	r          io.Reader
	sampleRate int
	declared   uint32
	unknown    bool
	maxBytes   int64
	read       int64 // payload bytes consumed so far
	done       bool
}

// NewWAVStreamReader reads and validates the WAV header (through the
// data chunk header) from r. maxDataBytes bounds the payload
// (ErrTooLarge; 0 means unlimited).
func NewWAVStreamReader(r io.Reader, maxDataBytes int64) (*WAVStreamReader, error) {
	rate, size, _, err := readWAVHeader(r, nil)
	if err != nil {
		return nil, err
	}
	unknown := size == 0 || size == unknownDataSize
	if !unknown && maxDataBytes > 0 && int64(size) > maxDataBytes {
		return nil, fmt.Errorf("audio: %w: data chunk of %d bytes (limit %d)", ErrTooLarge, size, maxDataBytes)
	}
	return &WAVStreamReader{
		r:          r,
		sampleRate: rate,
		declared:   size,
		unknown:    unknown,
		maxBytes:   maxDataBytes,
	}, nil
}

// SampleRate returns the stream's sample rate.
func (w *WAVStreamReader) SampleRate() int { return w.sampleRate }

// DeclaredSamples returns how many samples the header says the data
// chunk holds, and false when the size is unknown until EOF. It is a
// claim, not a promise: consumers may size buffers by it but must bound
// it themselves.
func (w *WAVStreamReader) DeclaredSamples() (int, bool) {
	return int(w.declared / 2), !w.unknown
}

// Read reads up to len(p) bytes of the data chunk's payload into p. It
// returns io.EOF once the payload is fully consumed — after verifying
// any trailer when the data size was declared. A short read mid-payload
// surfaces ErrTruncated with the transport cause wrapped (matchable with
// errors.As).
func (w *WAVStreamReader) Read(p []byte) (int, error) {
	if w.done {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	if !w.unknown {
		remaining := int64(w.declared) - w.read
		if remaining <= 0 {
			return 0, w.finish()
		}
		p = p[:min(int64(len(p)), remaining)]
	}
	n, err := w.r.Read(p)
	w.read += int64(n)
	if w.unknown && w.maxBytes > 0 && w.read > w.maxBytes {
		return 0, fmt.Errorf("audio: %w: streamed data exceeds %d bytes", ErrTooLarge, w.maxBytes)
	}
	if err == io.EOF {
		// A reader may surface EOF together with the final data (io.Pipe
		// successors, HTTP bodies): a payload that completed exactly is
		// whole, with no trailer to verify.
		if w.unknown || w.read >= int64(w.declared) {
			w.done = true
			if n > 0 {
				return n, nil
			}
			return 0, io.EOF
		}
		return n, fmt.Errorf("audio: %w: data chunk has %d of %d declared bytes", ErrTruncated, w.read, w.declared)
	}
	if err != nil {
		return n, fmt.Errorf("audio: %w: reading data chunk: %w", ErrTruncated, err)
	}
	return n, nil
}

// finish verifies the trailer once the declared payload is consumed and
// seals the reader.
func (w *WAVStreamReader) finish() error {
	w.done = true
	if err := verifyTrailer(w.r, w.declared, nil); err != nil {
		return err
	}
	return io.EOF
}

// PCM16Decoder converts little-endian 16-bit PCM that arrives split at
// arbitrary byte offsets (WAVStreamReader reads, WebSocket frames) into
// float64 samples with Decode's mapping: an odd byte straddling one chunk
// boundary is carried into the next chunk. The zero value is ready to use.
type PCM16Decoder struct {
	carry    byte
	hasCarry bool
}

// Append decodes data, after any byte carried from the previous call, and
// appends the samples to dst; a trailing odd byte is carried forward.
func (d *PCM16Decoder) Append(dst []float64, data []byte) []float64 {
	if d.hasCarry && len(data) > 0 {
		dst = append(dst, float64(int16(uint16(d.carry)|uint16(data[0])<<8))/32767)
		data, d.hasCarry = data[1:], false
	}
	for ; len(data) >= 2; data = data[2:] {
		dst = append(dst, float64(int16(binary.LittleEndian.Uint16(data)))/32767)
	}
	if len(data) == 1 {
		d.carry, d.hasCarry = data[0], true
	}
	return dst
}
