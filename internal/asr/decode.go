package asr

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

	words    []string
	pronIDs  [][]int
	pronMask []uint64 // the set of phonemes in each pronunciation (phonemeBit)
	maxPron  int      // longest pronunciation: sizes the edit-distance rows
}

// phonemeBit is id's bit in a phoneme-set mask; ids that do not fit
// (none of the inventory's 40) share the top bit.
func phonemeBit(id int) uint64 { return 1 << min(uint(id), 63) }

func phonemeSet(ids []int) (set uint64) {
	for _, id := range ids {
		set |= phonemeBit(id)
	}
	return set
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
	d.pronMask = make([]uint64, len(d.words))
	for i, w := range d.words {
		p, _ := phoneme.Lookup(w)
		ids, err := phoneme.Indices(p)
		if err != nil {
			return nil, fmt.Errorf("asr: lexicon word %q: %w", w, err)
		}
		d.pronIDs[i], d.pronMask[i] = ids, phonemeSet(ids)
		d.maxPron = max(d.maxPron, len(ids))
	}
	return d, nil
}

// SmoothLabels applies a 3-frame majority filter, suppressing single-frame
// label glitches that would otherwise fragment words.
func SmoothLabels(labels []int) []int {
	return smoothInto(make([]int, 0, len(labels)), labels)
}

// smoothInto appends the smoothed labels to dst.
func smoothInto(dst, labels []int) []int {
	dst = append(dst, labels...)
	for i := 1; i < len(labels)-1; i++ {
		if labels[i-1] == labels[i+1] && labels[i] != labels[i-1] {
			dst[i] = labels[i-1]
		}
	}
	return dst
}

// segments splits smoothed frame labels on silence into per-word phoneme
// sequences (consecutive repeats collapsed). Only silence runs of at least
// MinSilFrames split words: stop closures produce 1–2 near-silent frames
// inside words, while the inter-word pauses synthesized by the speech
// substrate are much longer.
func (d *Decoder) segments(labels []int) [][]int {
	return d.segmentsInto(labels, new(tailWork))
}

// segmentsInto is segments cut from w's buffers, valid until w's next.
func (d *Decoder) segmentsInto(labels []int, w *tailWork) [][]int {
	sil := phoneme.SilIndex()
	minSil := d.MinSilFrames
	if minSil <= 0 {
		minSil = 3
	}
	// Sized up front: a segment must not move while later ones grow ids.
	if cap(w.ids) < len(labels) {
		w.ids = make([]int, 0, len(labels))
	}
	ids, segs := w.ids[:0], w.segs[:0]
	start, curFrames, silRun := 0, 0, 0
	flush := func() {
		if curFrames >= d.MinSegFrames && len(ids) > start {
			segs = append(segs, ids[start:len(ids):len(ids)])
		}
		start, curFrames = len(ids), 0
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
		if len(ids) == start || ids[len(ids)-1] != l {
			ids = append(ids, l)
		}
	}
	flush()
	w.ids, w.segs = ids, segs
	return segs
}

// tailWork is what the engines of one detection, or of one stream
// session, share around their acoustic models: the energy gate's sums over
// the signal, the word decoder's lexicon matches and rescored words, and
// the scratch both work in. All of it is a pure function — of the
// (append-only) signal, of a phoneme segment, of a segment and the words
// before it — so whichever engine asks first computes a value, in the
// order a lone engine would, and the rest reuse it. The owner is a
// FeatureCache (under its mutex, cleared between clips) or an
// EnsembleStream (one goroutine, cleared with the session); the zero value
// serves a lone Transcribe.
type tailWork struct {
	// sum is Σv² over samples[sumA:sumB], the last range asked for: the
	// whole clip in a batch detection, the current window in a stream.
	sumA, sumB int
	sum        float64
	energies   []frameEnergies
	mask       []bool // silent's result

	smooth, ids []int   // decode's smoothed labels and segment phonemes
	segs        [][]int // decode's segments, cut from ids
	said        []string
	lmCands     []lm.Candidate

	prev, cur    []int // edit-distance rows
	key, wordKey []byte
	top          map[segKey][]candidate
	// word remembers the rescored word of (the LM context, a NUL, the
	// segment): what the words before a segment can change about it.
	word map[segKey]string
	dps  int // edit-distance programs run, for the test that counts them
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
	clear(w.word)
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

// silent reports, for frames first, first+1, … first+n-1, whether the
// energy gate forces the frame to silence: its mean-square energy is below
// ratio² times that of samples[a:b], or it starts past the signal's end.
// It is a function of the samples alone, so it runs before the acoustic
// model and a frame-independent classifier never labels a silent frame.
// The result is w's, valid until the next call.
func (w *tailWork) silent(first, n int, samples []float64, a, b, frameLen, hop int, ratio float64) []bool {
	threshold := ratio * ratio * (w.rangeSum(samples, a, b) / float64(b-a))
	means := w.frameMeans(samples, frameLen, hop)
	w.mask = slices.Grow(w.mask[:0], n)[:n]
	for k := range w.mask {
		f := first + k
		var mean float64
		if f < len(means) {
			mean = means[f]
		} else if start := f * hop; start < len(samples) {
			mean = sumSquares(samples[start:]) / float64(len(samples)-start)
		} else {
			w.mask[k] = true
			continue
		}
		w.mask[k] = mean < threshold
	}
	return w.mask
}

// silence overwrites the labels of silent frames with the silence phoneme.
func silence(labels []int, silent []bool) {
	sil := phoneme.SilIndex()
	for k, s := range silent {
		if s {
			labels[k] = sil
		}
	}
}

// gate returns labels — the labels of frames first, first+1, … — with
// every frame silent reports forced to silence.
func (w *tailWork) gate(labels []int, first int, samples []float64, a, b, frameLen, hop int, ratio float64) []int {
	out := slices.Clone(labels)
	silence(out, w.silent(first, len(labels), samples, a, b, frameLen, hop, ratio))
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
//
// Once the list is full a word enters only with a distance below the
// list's worst, and most are ruled out without the dynamic program. An
// alignment substitutes s phonemes, deletes d of seg's and inserts i of
// the word's, with d-i the difference of the lengths; each distinct
// phoneme of seg the word lacks sits at a position of its own that is
// deleted or substituted (d+s ≥ onlySeg), and likewise i+s ≥ onlyPron.
// The least i+d+s under the three is the bound. It is divided like the
// distance, and division by one positive denominator is monotonic, so it
// skips only words the comparison after the dynamic program would.
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
	segSet := phonemeSet(seg)
	top := make([]candidate, 0, k)
	for i, word := range d.words {
		pron, pronSet := d.pronIDs[i], d.pronMask[i]
		denom := max(len(seg), len(pron))
		if len(top) == k {
			onlySeg, onlyPron := bits.OnesCount64(segSet&^pronSet), bits.OnesCount64(pronSet&^segSet)
			longer := len(pron) - len(seg)
			bound := max(onlySeg+max(longer, 0), onlyPron+max(-longer, 0))
			if float64(bound)/float64(denom) >= top[k-1].dist {
				continue
			}
		}
		w.dps++
		nd := float64(phoneme.EditDistanceBuf(seg, pron, w.prev, w.cur)) / float64(denom)
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

// decode is Decode with w's scratch and memory of earlier decodes.
func (d *Decoder) decode(labels []int, w *tailWork) (string, error) {
	if len(labels) == 0 {
		return "", fmt.Errorf("asr: no frame labels to decode")
	}
	w.smooth = smoothInto(w.smooth[:0], labels)
	return d.wordsFromSegments(d.segmentsInto(w.smooth, w), w), nil
}

// wordsFromSegments maps each phoneme segment to its best lexicon word
// with LM rescoring and joins the words.
func (d *Decoder) wordsFromSegments(segs [][]int, w *tailWork) string {
	w.said = w.said[:0]
	for _, seg := range segs {
		if word := d.bestWord(w.said, seg, w); word != "" {
			w.said = append(w.said, word)
		}
	}
	return strings.Join(w.said, " ")
}

// bestWord returns the lexicon word for seg after the words said so far
// ("" when the decoder keeps no candidates): the closest candidates,
// rescored by the language model. The model reads only the last Order-1
// words, so w remembers the answer under those and the segment.
func (d *Decoder) bestWord(said []string, seg []int, w *tailWork) string {
	key := w.wordKey[:0]
	for _, h := range said[max(0, len(said)-(d.LM.Order-1)):] {
		key = append(append(key, h...), ' ')
	}
	key = append(key, 0)
	for _, id := range seg {
		key = binary.AppendUvarint(key, uint64(id))
	}
	w.wordKey = key
	if word, ok := w.word[segKey{d, string(key)}]; ok {
		return word
	}
	cands := d.topCandidates(seg, w)
	if len(cands) == 0 {
		return ""
	}
	// Acoustic score: negative normalized distance; LM rescoring on top
	// of it.
	w.lmCands = w.lmCands[:0]
	for _, c := range cands {
		w.lmCands = append(w.lmCands, lm.Candidate{Word: c.word, Score: -4 * c.dist})
	}
	best := d.LM.Rescore(said, w.lmCands, d.LMWeight)[0].Word
	if w.word == nil {
		w.word = make(map[segKey]string)
	}
	w.word[segKey{d, string(key)}] = best
	return best
}
