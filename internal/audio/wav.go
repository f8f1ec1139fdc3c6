package audio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// WAV I/O supports 16-bit mono PCM RIFF files, which is what every ASR
// engine and attack tool in this repository consumes and produces.

const (
	riffMagic = "RIFF"
	waveMagic = "WAVE"
	fmtChunk  = "fmt "
	dataChunk = "data"

	// maxFmtChunkBytes bounds the fmt chunk allocation. Real fmt chunks
	// are 16–40 bytes; anything larger is a malformed or hostile header.
	maxFmtChunkBytes = 1 << 12
)

// Typed decode errors, matchable with errors.Is. Servers map them to
// HTTP statuses: ErrTooLarge -> 413, everything else -> 400.
var (
	// ErrNotWAV marks input that is not a RIFF/WAVE stream at all.
	ErrNotWAV = errors.New("not a RIFF/WAVE stream")
	// ErrUnsupported marks valid WAV encodings this repo does not decode
	// (non-PCM, non-mono, non-16-bit).
	ErrUnsupported = errors.New("unsupported WAV encoding")
	// ErrTruncated marks a stream that ends before its declared payload.
	ErrTruncated = errors.New("truncated WAV stream")
	// ErrMalformed marks a structurally invalid WAV stream (bad chunk
	// layout, absurd chunk sizes, zero sample rate, ...).
	ErrMalformed = errors.New("malformed WAV stream")
	// ErrTooLarge marks a payload exceeding the caller's size limit.
	ErrTooLarge = errors.New("WAV payload exceeds size limit")
)

// WriteWAV encodes the clip as 16-bit mono PCM.
func WriteWAV(w io.Writer, c *Clip) error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("audio: invalid sample rate %d", c.SampleRate)
	}
	dataLen := len(c.Samples) * 2
	var hdr [44]byte
	copy(hdr[0:4], riffMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(36+dataLen))
	copy(hdr[8:12], waveMagic)
	copy(hdr[12:16], fmtChunk)
	binary.LittleEndian.PutUint32(hdr[16:20], 16)                     // fmt chunk size
	binary.LittleEndian.PutUint16(hdr[20:22], 1)                      // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1)                      // mono
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(c.SampleRate))   // sample rate
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(c.SampleRate*2)) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)                      // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)                     // bits per sample
	copy(hdr[36:40], dataChunk)
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(dataLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("audio: writing WAV header: %w", err)
	}
	buf := make([]byte, dataLen)
	for i, v := range c.Samples {
		s := int16(math.Round(clampF(v, -1, 1) * 32767))
		binary.LittleEndian.PutUint16(buf[i*2:], uint16(s))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("audio: writing WAV samples: %w", err)
	}
	return nil
}

// ReadWAV decodes a 16-bit mono PCM WAV stream with no size limit into
// float samples: ReadWAVPCM followed by Decode.
func ReadWAV(r io.Reader) (*Clip, error) {
	pcm, err := ReadWAVPCM(r, 0, nil)
	if err != nil {
		return nil, err
	}
	return pcm.Decode(), nil
}

// PCM16 is a structurally decoded WAV stream: the sample rate plus the raw
// little-endian 16-bit PCM payload, before any float conversion. It is the
// canonical form of the audio content — two encodings of the same samples
// (different chunk ordering, extra LIST/INFO chunks, trailing pad bytes)
// decode to identical PCM16 values — which makes it the right input for
// content-addressed caching: a consumer can fingerprint Data without ever
// materializing float64 samples.
type PCM16 struct {
	SampleRate int
	// Data is the raw little-endian int16 payload. When a scratch buffer
	// was passed to ReadWAVPCM, Data aliases it and is only valid until
	// the scratch is reused.
	Data []byte
}

// NumSamples returns the sample count (a trailing odd byte is ignored,
// matching Decode).
func (p PCM16) NumSamples() int { return len(p.Data) / 2 }

// Decode converts the raw payload into a Clip with float64 samples in
// [-1, 1]. The returned clip owns its samples (no aliasing of Data).
func (p PCM16) Decode() *Clip {
	return p.DecodeInto(nil)
}

// DecodeInto is Decode with a caller-provided sample buffer: when
// cap(samples) covers the payload the conversion reuses it, so a pooled
// buffer makes the float decode allocation-free. The clip aliases the
// buffer — the caller must not reuse it while the clip is live.
func (p PCM16) DecodeInto(samples []float64) *Clip {
	n := p.NumSamples()
	if cap(samples) < n {
		samples = make([]float64, n)
	}
	samples = samples[:n]
	for i := 0; i < n; i++ {
		s := int16(binary.LittleEndian.Uint16(p.Data[i*2:]))
		samples[i] = float64(s) / 32767
	}
	return &Clip{SampleRate: p.SampleRate, Samples: samples}
}

// readChunkBytes bounds one read while filling the data payload, so a
// hostile header declaring a huge size cannot force one huge allocation.
const readChunkBytes = 256 << 10

// ReadWAVPCM decodes the structure of a 16-bit mono PCM WAV stream,
// returning the sample rate and the raw PCM payload without converting to
// float64. scratch, when non-nil, is reused for the payload (its capacity
// is grown as needed); pass nil to allocate fresh. A payload over
// maxDataBytes fails with ErrTooLarge (0 means unlimited). Decoding is
// hardened against hostile input: declared chunk sizes are never trusted
// for up-front allocations, so a tiny truncated stream claiming a 4 GiB
// payload fails with ErrTruncated instead of exhausting memory. All
// rejections wrap one of the typed errors above.
func ReadWAVPCM(r io.Reader, maxDataBytes int64, scratch []byte) (PCM16, error) {
	var none PCM16
	sampleRate, size, scratch, err := readWAVHeader(r, scratch)
	if err != nil {
		return none, err
	}
	if maxDataBytes > 0 && int64(size) > maxDataBytes {
		return none, fmt.Errorf("audio: %w: data chunk of %d bytes (limit %d)", ErrTooLarge, size, maxDataBytes)
	}
	// Grow with the bytes actually present instead of trusting
	// the declared size for one huge allocation.
	buf := scratch[:0]
	for int64(len(buf)) < int64(size) {
		step := int64(size) - int64(len(buf))
		if step > readChunkBytes {
			step = readChunkBytes
		}
		start := len(buf)
		buf = growBytes(buf, int(step))
		n, err := io.ReadFull(r, buf[start:])
		buf = buf[:start+n]
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return none, fmt.Errorf("audio: %w: data chunk has %d of %d declared bytes", ErrTruncated, len(buf), size)
		}
		if err != nil {
			// Multi-%w: the cause must stay matchable — a tripped
			// http.MaxBytesReader surfaces here and servers map it to
			// 413, not 400.
			return none, fmt.Errorf("audio: %w: reading data chunk: %w", ErrTruncated, err)
		}
	}
	// The trailer check borrows 8 bytes of the payload buffer's spare
	// capacity as its chunk-header scratch: a stack array would escape
	// through the io.ReadFull interface call and put one allocation back
	// on the serve-hit path.
	tl := growBytes(buf, 8)
	if err := verifyTrailer(r, size, tl[len(buf):]); err != nil {
		return none, err
	}
	return PCM16{SampleRate: sampleRate, Data: buf}, nil
}

// readWAVHeader parses RIFF chunks up to and through the data chunk
// header, validating the fmt chunk (PCM, mono, 16-bit) on the way. It
// returns the sample rate and the declared data-chunk size; the reader
// is positioned at the first payload byte. scratch, when non-nil, backs
// the header reads and is returned for further reuse.
func readWAVHeader(r io.Reader, scratch []byte) (sampleRate int, dataSize uint32, out []byte, err error) {
	// Header, chunk-header and fmt-body reads all reuse the caller's
	// scratch: with a pooled scratch the structural decode allocates
	// nothing until the data payload (and nothing at all when the payload
	// fits the pooled capacity). Safe because every value is extracted
	// from the buffer before the next read overwrites it.
	hdr := growBytes(scratch[:0], 12)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, 0, nil, fmt.Errorf("audio: %w: reading RIFF header: %v", ErrNotWAV, err)
	}
	if string(hdr[0:4]) != riffMagic || string(hdr[8:12]) != waveMagic {
		return 0, 0, nil, fmt.Errorf("audio: %w", ErrNotWAV)
	}
	scratch = hdr[:0]
	var (
		channels int
		bits     int
		haveFmt  bool
	)
	for {
		chunk := growBytes(scratch[:0], 8)
		if _, err := io.ReadFull(r, chunk); err != nil {
			if err == io.EOF {
				return 0, 0, nil, fmt.Errorf("audio: %w: no data chunk", ErrMalformed)
			}
			return 0, 0, nil, fmt.Errorf("audio: %w: reading chunk header: %w", ErrTruncated, err)
		}
		scratch = chunk[:0]
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch {
		case string(chunk[0:4]) == fmtChunk:
			if size > maxFmtChunkBytes {
				return 0, 0, nil, fmt.Errorf("audio: %w: fmt chunk of %d bytes", ErrMalformed, size)
			}
			body := growBytes(scratch[:0], int(size))
			if _, err := io.ReadFull(r, body); err != nil {
				return 0, 0, nil, fmt.Errorf("audio: %w: reading fmt chunk: %v", ErrTruncated, err)
			}
			scratch = body[:0]
			if len(body) < 16 {
				return 0, 0, nil, fmt.Errorf("audio: %w: fmt chunk too short (%d bytes)", ErrMalformed, len(body))
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			if format != 1 {
				return 0, 0, nil, fmt.Errorf("audio: %w: format code %d (want PCM)", ErrUnsupported, format)
			}
			channels = int(binary.LittleEndian.Uint16(body[2:4]))
			sampleRate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
			if sampleRate == 0 {
				return 0, 0, nil, fmt.Errorf("audio: %w: zero sample rate", ErrMalformed)
			}
			haveFmt = true
			if err := skipPad(r, size); err != nil {
				return 0, 0, nil, err
			}
		case string(chunk[0:4]) == dataChunk:
			if !haveFmt {
				return 0, 0, nil, fmt.Errorf("audio: %w: data chunk before fmt chunk", ErrMalformed)
			}
			if bits != 16 {
				return 0, 0, nil, fmt.Errorf("audio: %w: bit depth %d (want 16)", ErrUnsupported, bits)
			}
			if channels != 1 {
				return 0, 0, nil, fmt.Errorf("audio: %w: %d channels (want mono)", ErrUnsupported, channels)
			}
			return sampleRate, size, scratch, nil
		default:
			// Skip unknown chunks (LIST, INFO, ...).
			if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
				return 0, 0, nil, fmt.Errorf("audio: %w: skipping %q chunk: %v", ErrTruncated, string(chunk[0:4]), err)
			}
			if err := skipPad(r, size); err != nil {
				return 0, 0, nil, err
			}
		}
	}
}

// verifyTrailer consumes whatever follows the data payload and requires
// it to be well-formed: the optional pad byte, then either EOF or valid
// trailing RIFF chunks (LIST, id3 , ...). A declared data size that
// understates the body — extra PCM bytes dangling after the chunk, the
// signature of a corrupted chunked upload — is rejected instead of being
// silently dropped from the verdict's input.
//
// hdr is an 8-byte chunk-header scratch supplied by the caller: a local
// array would escape through the io.ReadFull interface call and cost an
// allocation per decode. Callers without spare buffer capacity pass nil.
func verifyTrailer(r io.Reader, dataSize uint32, hdr []byte) error {
	if len(hdr) < 8 {
		hdr = make([]byte, 8)
	}
	hdr = hdr[:8]
	if err := skipPad(r, dataSize); err != nil {
		return err
	}
	for {
		n, err := io.ReadFull(r, hdr)
		if err == io.EOF {
			return nil
		}
		if err == io.ErrUnexpectedEOF {
			return fmt.Errorf("audio: %w: %d trailing bytes after data chunk are not a chunk", ErrMalformed, n)
		}
		if err != nil {
			return fmt.Errorf("audio: %w: reading trailing chunk header: %w", ErrTruncated, err)
		}
		if !chunkIDValid(hdr[0:4]) {
			return fmt.Errorf("audio: %w: trailing bytes after data chunk are not a chunk (data chunk length understates body?)", ErrMalformed)
		}
		size := binary.LittleEndian.Uint32(hdr[4:8])
		if _, err := io.CopyN(io.Discard, r, int64(size)); err != nil {
			return fmt.Errorf("audio: %w: trailing %q chunk has fewer than %d declared bytes", ErrTruncated, string(hdr[0:4]), size)
		}
		if err := skipPad(r, size); err != nil {
			return err
		}
	}
}

// chunkIDValid reports whether the four bytes look like a RIFF chunk ID
// (printable ASCII). Raw PCM noise almost never does, which is what
// distinguishes legitimate trailing metadata from a length mismatch.
func chunkIDValid(id []byte) bool {
	for _, b := range id {
		if b < 0x20 || b > 0x7E {
			return false
		}
	}
	return true
}

// growBytes extends b by n zero-valued bytes, reallocating only when the
// capacity is exhausted (so a pooled scratch amortizes to zero).
func growBytes(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	grown := make([]byte, len(b)+n, 2*cap(b)+n)
	copy(grown, b)
	return grown
}

// skipPad consumes the RIFF pad byte after an odd-sized chunk. A missing
// pad byte at EOF is tolerated (common in the wild); a mid-stream read
// error is not.
func skipPad(r io.Reader, size uint32) error {
	if size%2 == 0 {
		return nil
	}
	var pad [1]byte
	if _, err := io.ReadFull(r, pad[:]); err != nil && err != io.EOF {
		return fmt.Errorf("audio: %w: reading chunk pad byte: %v", ErrTruncated, err)
	}
	return nil
}

// SaveWAV writes the clip to a file.
func SaveWAV(path string, c *Clip) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("audio: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("audio: closing %s: %w", path, cerr)
		}
	}()
	return WriteWAV(f, c)
}

// LoadWAV reads a clip from a file.
func LoadWAV(path string) (*Clip, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("audio: opening %s: %w", path, err)
	}
	defer f.Close()
	c, err := ReadWAV(f)
	if err != nil {
		return nil, fmt.Errorf("audio: decoding %s: %w", path, err)
	}
	return c, nil
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
