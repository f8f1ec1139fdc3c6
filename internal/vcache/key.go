// Package vcache is a content-addressed verdict cache for the MVP-EARS
// serving path. The paper's §V-I overhead study shows recognition (N+1
// full ASR transcriptions) dominates per-query cost; real service traffic
// is duplicate-rich (replayed clips, retried uploads, viral audio,
// query-based attack probes that re-submit near-identical audio hundreds
// of times), so the second and later requests for the same audio should
// cost a hash, not a pipeline run.
//
// Three pieces compose the cache:
//
//   - Keys: a canonical fingerprint of (model, sample rate, PCM content).
//     The audio part hashes the normalized 16-bit PCM stream — not the WAV
//     container bytes — so re-encodings with different chunk layouts map to
//     the same key. The model part is the fingerprint of the persisted
//     engine/classifier artifact, so keys remain valid across daemon
//     restarts but a different model can never serve another model's
//     verdicts.
//   - Cache: one LRU under one mutex, bounded exactly by both entry count
//     and resident bytes, with hit/miss/eviction/bytes counters.
//   - Group: singleflight duplicate collapsing, so K concurrent requests
//     for one fingerprint run one detection, on the first caller's
//     goroutine, and share the result. Flights are context-correct: work
//     runs under a flight-owned context that a single caller's
//     cancellation cannot cancel; it is cancelled only when every
//     interested caller has gone away.
package vcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
)

// Canonical PCM: WAV decoding maps int16 s to float s/32767 and encoding
// quantizes with round(clamp(v,-1,1)*32767). The only int16 value this
// round trip does not preserve is -32768 (clamped to -32767), so hashing
// treats -32768 as -32767; with that, fingerprinting the raw little-endian
// payload and fingerprinting decoded float64 samples agree bit-for-bit.

// hashChunkBytes sizes the stack staging buffer KeySamples quantizes
// into while hashing, so key derivation performs no heap allocation
// beyond the key string.
const hashChunkBytes = 8 << 10

// canonicalMin is the little-endian int16 -32767: hashed in place of every
// -32768 sample.
var canonicalMin = [2]byte{0x01, 0x80}

// KeyPCM16 derives the cache key for raw little-endian 16-bit PCM audio
// under the given model fingerprint. A trailing odd byte is ignored (it
// decodes to no sample).
//
// The payload is hashed in place, never copied: bytes.IndexByte finds each
// 0x80 byte, and only one that is the high byte of an aligned 00 80 pair
// (an int16 -32768) splits the write, with the canonical 01 80 hashed in
// its place.
func KeyPCM16(modelFP string, sampleRate int, data []byte) string {
	h := sha256.New()
	hashRateHeader(h, sampleRate)
	rest := data[:len(data)&^1]
	hashed := 0 // rest[:hashed] has been written to h
	for from := 0; from < len(rest); {
		i := bytes.IndexByte(rest[from:], 0x80)
		if i < 0 {
			break
		}
		i += from
		from = i + 1
		if i&1 == 1 && rest[i-1] == 0x00 {
			h.Write(rest[hashed : i-1])
			h.Write(canonicalMin[:])
			hashed = i + 1
		}
	}
	h.Write(rest[hashed:])
	var sum [sha256.Size]byte
	return finishKey(modelFP, h.Sum(sum[:0]))
}

// KeySamples derives the cache key for float64 samples in [-1, 1] — the
// same key KeyPCM16 produces for the samples' 16-bit PCM encoding.
func KeySamples(modelFP string, sampleRate int, samples []float64) string {
	h := sha256.New()
	hashRateHeader(h, sampleRate)
	var chunk [hashChunkBytes]byte
	for len(samples) > 0 {
		n := len(samples)
		if n > len(chunk)/2 {
			n = len(chunk) / 2
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(chunk[i*2:], uint16(quantize(samples[i])))
		}
		h.Write(chunk[:n*2])
		samples = samples[n:]
	}
	return finishKey(modelFP, h.Sum(chunk[:0]))
}

type hashWriter interface{ Write(p []byte) (int, error) }

func hashRateHeader(h hashWriter, sampleRate int) {
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(sampleRate))
	h.Write(hdr[:])
}

// quantize mirrors the WAV encoder: round(clamp(v,-1,1)*32767).
func quantize(v float64) int16 {
	if v < -1 {
		v = -1
	}
	if v > 1 {
		v = 1
	}
	scaled := v * 32767
	if scaled >= 0 {
		return int16(scaled + 0.5)
	}
	return int16(scaled - 0.5)
}

// finishKey renders "modelFP:hex(audio digest)". The model fingerprint
// goes in front unhashed so operators can read which model a key belongs
// to in logs and a model swap visibly invalidates every key.
func finishKey(modelFP string, sum []byte) string {
	var enc [sha256.Size * 2]byte
	hex.Encode(enc[:], sum)
	var out strings.Builder
	out.Grow(len(modelFP) + 1 + len(enc))
	out.WriteString(modelFP)
	out.WriteByte(':')
	out.Write(enc[:])
	return out.String()
}
