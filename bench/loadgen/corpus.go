package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"mvpears/internal/audio"
	"mvpears/internal/speech"
)

// Corpus sizes. The hot set (64) is far below the daemon's 4096-entry
// verdict cache, so hit_replay never evicts.
const (
	numBenign = 64
	numAE     = 16
	numLong   = 16
	// carrierBits is how many low sample bits encode a variant number.
	carrierBits = 32
)

// clip is one corpus entry: the WAV file bytes the daemon is sent, plus
// the byte offsets of the carrier samples whose lowest bit encodes a
// variant number. Flipping those bits changes the content key (the
// daemon has never seen the bytes) and nothing audible.
type clip struct {
	wav      []byte
	dataOff  int
	carriers [carrierBits]int
}

// newClip encodes c as a WAV file and picks its carrier samples: the
// first carrierBits samples above -32767. vcache canonicalizes -32768 to
// -32767, so a low-bit flip on either of those two values could leave
// the key unchanged; every other value is safe.
func newClip(c *audio.Clip) (*clip, error) {
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, c); err != nil {
		return nil, err
	}
	return newClipFromWAV(buf.Bytes())
}

func newClipFromWAV(wav []byte) (*clip, error) {
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(wav), 0, nil)
	if err != nil {
		return nil, err
	}
	out := &clip{wav: wav, dataOff: len(wav) - len(pcm.Data)}
	if !bytes.Equal(wav[out.dataOff:], pcm.Data) {
		return nil, fmt.Errorf("corpus: WAV payload is not the file's tail")
	}
	found := 0
	for i := 0; i+1 < len(pcm.Data) && found < carrierBits; i += 2 {
		if int16(binary.LittleEndian.Uint16(pcm.Data[i:])) > -32767 {
			out.carriers[found] = out.dataOff + i
			found++
		}
	}
	if found < carrierBits {
		return nil, fmt.Errorf("corpus: clip has only %d usable carrier samples", found)
	}
	return out, nil
}

// variant writes the clip's n-th variant into dst (grown as needed) and
// returns it. Variant 0 is the hot-set form; never-seen traffic uses
// n >= 1, each n at most once in a daemon's life.
func (c *clip) variant(n uint32, dst []byte) []byte {
	dst = append(dst[:0], c.wav...)
	for k, off := range c.carriers {
		dst[off] = dst[off]&^1 | byte(n>>k&1)
	}
	return dst
}

// decodeWAV returns the float samples of WAV bytes, as the daemon would
// decode them, for the in-process reference.
func decodeWAV(wav []byte) (*audio.Clip, error) {
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(wav), 0, nil)
	if err != nil {
		return nil, err
	}
	return pcm.DecodeInto(nil), nil
}

// corpus is the seeded input set. The daemon only ever sees bytes
// derived from it.
type corpus struct {
	rate   int
	benign []*clip // 1.3-1.8 s utterances
	ae     []*clip // successful white-box AEs against the target engine
	long   []*clip // three-utterance concatenations for streaming
}

// buildCorpus synthesizes the benign utterances and the streaming
// concatenations from the seed. The AEs are crafted against the model,
// not the seed (see modelCache), and are passed in as WAV bytes.
func buildCorpus(seed int64, rate int, aeWAVs [][]byte) (*corpus, error) {
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(rate), numBenign, seed)
	if err != nil {
		return nil, err
	}
	co := &corpus{rate: rate}
	for _, u := range utts {
		cl, err := newClip(u.Clip)
		if err != nil {
			return nil, err
		}
		co.benign = append(co.benign, cl)
	}
	for _, wav := range aeWAVs {
		cl, err := newClipFromWAV(wav)
		if err != nil {
			return nil, err
		}
		co.ae = append(co.ae, cl)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6c6f6e67))
	for i := 0; i < numLong; i++ {
		cat := &audio.Clip{SampleRate: rate}
		for j := 0; j < 3; j++ {
			cat.Samples = append(cat.Samples, utts[rng.Intn(len(utts))].Clip.Samples...)
		}
		cl, err := newClip(cat)
		if err != nil {
			return nil, err
		}
		co.long = append(co.long, cl)
	}
	return co, nil
}

// mix64 is the splitmix64 finalizer: a seeded, stateless hash so that
// request k's content depends only on (seed, k), never on which client
// goroutine happened to send it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// draw returns the i-th seeded 64-bit draw for request k.
func draw(seed int64, k, i uint64) uint64 {
	return mix64(mix64(uint64(seed)) ^ mix64(k*8+i))
}
