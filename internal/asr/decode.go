package asr

import (
	"encoding/binary"
	"fmt"
	"strings"

	"mvpears/internal/lm"
	"mvpears/internal/phoneme"
)

// Decoder turns per-frame phoneme labels into a word sequence using the
// pronunciation lexicon (phoneme edit distance) and an n-gram language
// model for rescoring — the paper's "phoneme assembling" and "language
// generation" stages.
type Decoder struct {
	LM           *lm.Model
	LMWeight     float64 // weight of the LM log-prob during rescoring
	TopK         int     // lexicon candidates per segment
	MinSegFrames int     // segments shorter than this are treated as noise
	MinSilFrames int     // silence runs shorter than this do not split words

	words   []string
	pronIDs [][]int
	maxPron int // longest pronunciation: sizes the edit-distance rows
}

// NewDecoder builds a decoder over the global lexicon.
func NewDecoder(model *lm.Model, lmWeight float64, topK int) (*Decoder, error) {
	if model == nil {
		return nil, fmt.Errorf("asr: decoder needs a language model")
	}
	if topK <= 0 {
		topK = 5
	}
	d := &Decoder{LM: model, LMWeight: lmWeight, TopK: topK, MinSegFrames: 2, MinSilFrames: 3}
	d.words = phoneme.Words()
	d.pronIDs = make([][]int, len(d.words))
	for i, w := range d.words {
		p, _ := phoneme.Lookup(w)
		ids, err := phoneme.Indices(p)
		if err != nil {
			return nil, fmt.Errorf("asr: lexicon word %q: %w", w, err)
		}
		d.pronIDs[i] = ids
		d.maxPron = max(d.maxPron, len(ids))
	}
	return d, nil
}

// SmoothLabels applies a 3-frame majority filter, suppressing single-frame
// label glitches that would otherwise fragment words.
func SmoothLabels(labels []int) []int {
	if len(labels) < 3 {
		out := make([]int, len(labels))
		copy(out, labels)
		return out
	}
	out := make([]int, len(labels))
	copy(out, labels)
	for i := 1; i < len(labels)-1; i++ {
		if labels[i-1] == labels[i+1] && labels[i] != labels[i-1] {
			out[i] = labels[i-1]
		}
	}
	return out
}

// segments splits smoothed frame labels on silence into per-word phoneme
// sequences (consecutive repeats collapsed). Only silence runs of at least
// MinSilFrames split words: stop closures produce 1–2 near-silent frames
// inside words, while the inter-word pauses synthesized by the speech
// substrate are much longer.
func (d *Decoder) segments(labels []int) [][]int {
	sil := phoneme.SilIndex()
	minSil := d.MinSilFrames
	if minSil <= 0 {
		minSil = 3
	}
	var segs [][]int
	var cur []int
	var curFrames int
	var silRun int
	flush := func() {
		if curFrames >= d.MinSegFrames && len(cur) > 0 {
			segs = append(segs, cur)
		}
		cur = nil
		curFrames = 0
	}
	for _, l := range labels {
		if l == sil {
			silRun++
			if silRun >= minSil {
				flush()
			}
			continue
		}
		silRun = 0
		curFrames++
		if len(cur) == 0 || cur[len(cur)-1] != l {
			cur = append(cur, l)
		}
	}
	flush()
	return segs
}

// tailWork is what the engines of one detection, or of one stream
// session, share after their acoustic models have run: the energy gate's
// sums over the signal and the word decoder's lexicon matches. Both are
// pure functions — of the (append-only) signal and of a phoneme segment —
// so whichever engine asks first computes them, in the order a lone engine
// would, and the rest reuse the value. The owner is a FeatureCache (under
// its mutex, cleared between clips) or an EnsembleStream (one goroutine,
// dropped with the session); the zero value serves a lone Transcribe.
type tailWork struct {
	// sum is Σv² over samples[sumA:sumB], the last range asked for: the
	// whole clip in a batch detection, the current window in a stream.
	sumA, sumB int
	sum        float64
	energies   []frameEnergies

	prev, cur []int // edit-distance rows
	key       []byte
	top       map[segKey][]candidate
}

// frameEnergies holds the mean-square energy of every frame that lies
// wholly inside the signal, for one frame geometry. A frame the signal
// does not cover yet (a stream's newest) or never will (a clip's last) is
// summed on demand over the part that exists.
type frameEnergies struct {
	frameLen, hop int
	mean          []float64
}

// segKey identifies one decoder's view of one phoneme segment.
type segKey struct {
	dec *Decoder
	seg string // the phoneme ids, one uvarint each
}

// reset forgets everything computed for the previous clip, keeping the
// allocated buffers.
func (w *tailWork) reset() {
	w.sumA, w.sumB = 0, 0
	for i := range w.energies {
		w.energies[i].mean = w.energies[i].mean[:0]
	}
	clear(w.top)
}

func sumSquares(x []float64) float64 {
	var e float64
	for _, v := range x {
		e += v * v
	}
	return e
}

// rangeSum returns Σv² over samples[a:b], summed from a upward.
func (w *tailWork) rangeSum(samples []float64, a, b int) float64 {
	if a != w.sumA || b != w.sumB {
		w.sumA, w.sumB, w.sum = a, b, sumSquares(samples[a:b])
	}
	return w.sum
}

// frameMeans returns the cached energies for the geometry, extended to
// every frame samples now covers completely.
func (w *tailWork) frameMeans(samples []float64, frameLen, hop int) []float64 {
	var fe *frameEnergies
	for i := range w.energies {
		if w.energies[i].frameLen == frameLen && w.energies[i].hop == hop {
			fe = &w.energies[i]
			break
		}
	}
	if fe == nil {
		w.energies = append(w.energies, frameEnergies{frameLen: frameLen, hop: hop})
		fe = &w.energies[len(w.energies)-1]
	}
	for start := len(fe.mean) * hop; start+frameLen <= len(samples); start += hop {
		fe.mean = append(fe.mean, sumSquares(samples[start:start+frameLen])/float64(frameLen))
	}
	return fe.mean
}

// gate returns labels — the labels of frames first, first+1, … — with
// every frame forced to silence whose mean-square energy is below ratio²
// times that of samples[a:b], or that starts past the signal's end.
func (w *tailWork) gate(labels []int, first int, samples []float64, a, b, frameLen, hop int, ratio float64) []int {
	threshold := ratio * ratio * (w.rangeSum(samples, a, b) / float64(b-a))
	means := w.frameMeans(samples, frameLen, hop)
	sil := phoneme.SilIndex()
	out := make([]int, len(labels))
	copy(out, labels)
	for k := range out {
		f := first + k
		var mean float64
		if f < len(means) {
			mean = means[f]
		} else if start := f * hop; start < len(samples) {
			mean = sumSquares(samples[start:]) / float64(len(samples)-start)
		} else {
			out[k] = sil
			continue
		}
		if mean < threshold {
			out[k] = sil
		}
	}
	return out
}

// ApplyEnergyGate forces frames whose RMS energy is below ratio times the
// whole-clip RMS to silence. This suppresses spurious labels on the
// zero-padded final frame and in long pauses.
func ApplyEnergyGate(labels []int, samples []float64, frameLen, hop int, ratio float64) []int {
	if frameLen <= 0 || hop <= 0 || len(samples) == 0 {
		return labels
	}
	return new(tailWork).gate(labels, 0, samples, 0, len(samples), frameLen, hop, ratio)
}

// candidate is a lexicon word scored against a phoneme segment.
type candidate struct {
	word string
	dist float64 // normalized phoneme edit distance
}

// topCandidates returns the TopK lexicon words closest to the phoneme
// sequence, ties broken alphabetically (the word list is sorted, and
// insertion keeps the earlier of equally distant words first — the same
// order the previous stable full sort produced). The result depends on
// nothing but (d, seg), so w remembers it; callers must not modify it.
func (d *Decoder) topCandidates(seg []int, w *tailWork) []candidate {
	k := d.TopK
	if k > len(d.words) {
		k = len(d.words)
	}
	if k <= 0 {
		return nil
	}
	w.key = w.key[:0]
	for _, id := range seg {
		w.key = binary.AppendUvarint(w.key, uint64(id))
	}
	if top, ok := w.top[segKey{d, string(w.key)}]; ok {
		return top
	}
	if cap(w.prev) <= d.maxPron {
		w.prev, w.cur = make([]int, d.maxPron+1), make([]int, d.maxPron+1)
	}
	top := make([]candidate, 0, k)
	for i, word := range d.words {
		dist := phoneme.EditDistanceBuf(seg, d.pronIDs[i], w.prev, w.cur)
		denom := len(seg)
		if len(d.pronIDs[i]) > denom {
			denom = len(d.pronIDs[i])
		}
		nd := float64(dist) / float64(denom)
		if len(top) == k && nd >= top[k-1].dist {
			continue
		}
		// Insert in sorted position (strictly-less keeps ties in word
		// order).
		pos := len(top)
		for pos > 0 && nd < top[pos-1].dist {
			pos--
		}
		if len(top) < k {
			top = append(top, candidate{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = candidate{word: word, dist: nd}
	}
	if w.top == nil {
		w.top = make(map[segKey][]candidate)
	}
	w.top[segKey{d, string(w.key)}] = top
	return top
}

// DecodePhonemes converts an already-collapsed phoneme-id sequence (as
// produced by a CTC decoder) into a transcription: words are the
// silence-delimited runs.
func (d *Decoder) DecodePhonemes(ids []int) (string, error) {
	if len(ids) == 0 {
		return "", fmt.Errorf("asr: no phonemes to decode")
	}
	sil := phoneme.SilIndex()
	var segs [][]int
	var cur []int
	for _, id := range ids {
		if id == sil {
			if len(cur) > 0 {
				segs = append(segs, cur)
				cur = nil
			}
			continue
		}
		cur = append(cur, id)
	}
	if len(cur) > 0 {
		segs = append(segs, cur)
	}
	return d.wordsFromSegments(segs, new(tailWork)), nil
}

// Decode converts per-frame phoneme labels into a transcription.
func (d *Decoder) Decode(labels []int) (string, error) {
	return d.decode(labels, new(tailWork))
}

// decode is Decode with the lexicon matches remembered in w.
func (d *Decoder) decode(labels []int, w *tailWork) (string, error) {
	if len(labels) == 0 {
		return "", fmt.Errorf("asr: no frame labels to decode")
	}
	segs := d.segments(SmoothLabels(labels))
	return d.wordsFromSegments(segs, w), nil
}

// wordsFromSegments maps each phoneme segment to its best lexicon word
// with LM rescoring and joins the words.
func (d *Decoder) wordsFromSegments(segs [][]int, w *tailWork) string {
	words := make([]string, 0, len(segs))
	history := make([]string, 0, len(segs))
	for _, seg := range segs {
		cands := d.topCandidates(seg, w)
		if len(cands) == 0 {
			continue
		}
		// Acoustic score: negative normalized distance; LM rescoring on
		// top of it.
		lmCands := make([]lm.Candidate, len(cands))
		for i, c := range cands {
			lmCands[i] = lm.Candidate{Word: c.word, Score: -4 * c.dist}
		}
		best := d.LM.Rescore(history, lmCands, d.LMWeight)[0].Word
		words = append(words, best)
		history = append(history, best)
	}
	return strings.Join(words, " ")
}
