package asr

import (
	"fmt"
	"math"
	"slices"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/hmm"
	"mvpears/internal/nn"
)

// This file is the frame-incremental counterpart of the clip-at-a-time
// engines: an EnsembleStream accepts audio in arbitrary chunks, advances
// every engine as far as its architecture allows, and can produce
// (a) provisional transcriptions of any sample window mid-stream and
// (b) final transcriptions that are bit-identical to TranscribeWithCache
// on the whole clip.
//
// The commitment rule per engine follows its future-context needs:
//
//   - MLP engines classify frame t from frames [t-Context, t+Context], so
//     label t is final once frame t+Context exists (left edge clamps to
//     frame 0, which always exists).
//   - RNN engines with deltas consume inputs built from frames t±2, so
//     input t is final once frame t+2 exists; the hidden state advances
//     only over final inputs, and provisional tails run on a copy.
//   - GMM engines have no future context: the Viterbi lattice advances
//     per frame, and a provisional path is a backtrace on demand.
//   - Weak engines are per-frame classifiers: final immediately.
//   - Anything else (CTC and external engines) falls back to batch
//     transcription of the window / whole clip.
//
// Streaming and batch run the same float64 kernels.

// streamFront is one front-end configuration's frames so far; engines
// with identical configurations share it, like FeatureCache entries do
// for batch.
type streamFront struct {
	feats [][]float64 // every complete frame emitted so far
}

// EnsembleStream feeds one audio session through a set of engines
// incrementally. It is owned by one goroutine (the session's).
type EnsembleStream struct {
	rate    int
	samples []float64
	// front is the session's one streaming front end (one spectrum per
	// spectrum group, one rolling signal per pre-emphasis coefficient);
	// fronts holds its members' frames, indexed like its extractors: one
	// per distinct config fingerprint, in registration order.
	front     *dsp.FrontEndStream
	fronts    []*streamFront
	streams   []engineStream
	finalized bool
	// tail is the post-acoustic work every window, every engine and the
	// final pass share (energy gate sums, lexicon matches). It lives and
	// dies with the session, which MaxDuration bounds.
	tail tailWork
}

// engineStream is the per-engine incremental state.
type engineStream interface {
	// advance consumes newly available frames; with final=true the
	// tail frames are committed with end-of-clip clamping.
	advance(final bool) error
	// windowText transcribes the sample range [a,b) provisionally.
	windowText(a, b int) (string, error)
	// finalText transcribes the whole clip; only valid after
	// advance(true). Bit-identical to the engine's batch Transcribe.
	finalText() (string, error)
}

// NewEnsembleStream builds incremental state for the given engines. All
// engines must run at sampleRate (streaming does not resample).
func NewEnsembleStream(engines []Recognizer, sampleRate int) (*EnsembleStream, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("asr: ensemble stream needs at least one engine")
	}
	es := &EnsembleStream{rate: sampleRate, streams: make([]engineStream, len(engines))}
	var ms []*dsp.MFCC
	for i, eng := range engines {
		m, rate := frontEndOf(eng)
		// CTC's beam search has no incremental form, front end or not.
		if _, ctc := eng.(*CTCEngine); m == nil || ctc {
			es.streams[i] = &batchStream{e: eng, feed: es}
			continue
		}
		if rate != sampleRate {
			return nil, fmt.Errorf("asr: %s: engine expects %d Hz, stream is %d Hz", eng.Name(), rate, sampleRate)
		}
		fi := slices.IndexFunc(ms, func(o *dsp.MFCC) bool { return o.Fingerprint() == m.Fingerprint() })
		if fi < 0 {
			fi = len(ms)
			ms = append(ms, m)
			es.fronts = append(es.fronts, &streamFront{})
		}
		f := es.fronts[fi]
		switch e := eng.(type) {
		case *MLPEngine:
			es.streams[i] = &mlpStream{e: e, feed: es, front: f,
				stacked: make([]float64, (2*e.Context+1)*m.Config().NumCoeffs),
				scratch: e.Net.NewScratch()}
		case *RNNEngine:
			es.streams[i] = newRNNStream(e, es, f)
		case *GMMEngine:
			es.streams[i] = &gmmStream{e: e, feed: es, front: f, v: e.Model.Stream()}
		case *WeakEngine:
			es.streams[i] = &weakStream{e: e, feed: es, front: f}
		}
	}
	if len(ms) > 0 {
		es.front = dsp.NewFrontEnd(ms).Stream()
	}
	return es, nil
}

// NumEngines returns the engine count.
func (es *EnsembleStream) NumEngines() int { return len(es.streams) }

// Total returns the number of samples pushed so far.
func (es *EnsembleStream) Total() int { return len(es.samples) }

// Samples exposes the accumulated clip (the energy gate, the final
// verdict and the verdict-cache probe all need the whole signal). The
// slice is owned by the stream; callers must not mutate it.
func (es *EnsembleStream) Samples() []float64 { return es.samples }

// Reserve grows the sample buffer to hold n samples without further
// copying — for callers that know the clip's length up front (a WAV
// header that declares it).
func (es *EnsembleStream) Reserve(n int) {
	if n > cap(es.samples) {
		grown := make([]float64, len(es.samples), n)
		copy(grown, es.samples)
		es.samples = grown
	}
}

// Push appends a chunk of audio and advances every engine as far as its
// commitment rule allows.
func (es *EnsembleStream) Push(chunk []float64) error {
	if es.finalized {
		return fmt.Errorf("asr: Push after Finalize on ensemble stream")
	}
	if len(chunk) == 0 {
		return nil
	}
	// Doubling keeps a session's total allocation linear in its length
	// (append's 1.25x growth of large slices copies the clip five times).
	if need := len(es.samples) + len(chunk); need > cap(es.samples) {
		es.Reserve(max(need, 2*cap(es.samples)))
	}
	es.samples = append(es.samples, chunk...)
	if es.front != nil {
		rows, err := es.front.Push(chunk)
		if err != nil {
			return err
		}
		es.collect(rows)
	}
	for _, st := range es.streams {
		if err := st.advance(false); err != nil {
			return err
		}
	}
	return nil
}

// Finalize seals the stream: the zero-padded tail frames are emitted and
// every engine commits its remaining labels with end-of-clip clamping.
// Idempotent.
func (es *EnsembleStream) Finalize() error {
	if es.finalized {
		return nil
	}
	if len(es.samples) == 0 {
		return fmt.Errorf("asr: cannot finalize an empty stream")
	}
	if es.front != nil {
		tail, err := es.front.Flush()
		if err != nil {
			return err
		}
		es.collect(tail)
	}
	for _, st := range es.streams {
		if err := st.advance(true); err != nil {
			return err
		}
	}
	es.finalized = true
	return nil
}

// collect appends the front end's newly emitted rows to its members'
// frame lists.
func (es *EnsembleStream) collect(rows [][][]float64) {
	for i, f := range es.fronts {
		f.feats = append(f.feats, rows[i]...)
	}
}

// WindowText returns engine i's provisional transcription of the sample
// window [a,b). Only frames already complete participate; an empty window
// decodes to "".
func (es *EnsembleStream) WindowText(i, a, b int) (string, error) {
	if es.finalized {
		return "", fmt.Errorf("asr: WindowText after Finalize")
	}
	if a < 0 || b > len(es.samples) || a >= b {
		return "", fmt.Errorf("asr: window [%d,%d) out of range (have %d samples)", a, b, len(es.samples))
	}
	return es.streams[i].windowText(a, b)
}

// FinalText returns engine i's transcription of the whole streamed clip.
// Must be preceded by Finalize.
func (es *EnsembleStream) FinalText(i int) (string, error) {
	if !es.finalized {
		return "", fmt.Errorf("asr: FinalText before Finalize")
	}
	return es.streams[i].finalText()
}

// windowFrames maps the sample range [a,b) to the engine frame range
// [first,end): the frames whose start sample lies in the window, clamped
// to the frames emitted so far.
func windowFrames(a, b, hop, emitted int) (first, end int) {
	first = (a + hop - 1) / hop
	end = (b + hop - 1) / hop
	if end > emitted {
		end = emitted
	}
	return first, end
}

// decodeFrames gates the labels of frames firstFrame, firstFrame+1, …
// against the energy of samples [a,b) and decodes them to words. A window
// passes its own range: frames whose RMS is below energyGateRatio times
// the window's are forced to silence, indexed absolutely into the shared
// sample buffer since engine frame geometries may differ. The final pass
// passes the whole clip from frame 0, which is exactly the tail of
// TranscribeWithCache.
func (es *EnsembleStream) decodeFrames(labels []int, firstFrame int, m *dsp.MFCC, dec *Decoder, a, b int, id EngineID) (string, error) {
	mc := m.Config()
	gated := es.tail.gate(labels, firstFrame, es.samples, a, b, mc.FrameLen, mc.Hop, energyGateRatio)
	text, err := dec.decode(gated, &es.tail)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", id, err)
	}
	return text, nil
}

// decodeFinal is decodeFrames over the whole clip.
func (es *EnsembleStream) decodeFinal(labels []int, m *dsp.MFCC, dec *Decoder, id EngineID) (string, error) {
	return es.decodeFrames(labels, 0, m, dec, 0, len(es.samples), id)
}

// --- MLP -------------------------------------------------------------

type mlpStream struct {
	e       *MLPEngine
	feed    *EnsembleStream
	front   *streamFront
	labels  []int // committed labels
	stacked []float64
	scratch *nn.MLPScratch
}

func (s *mlpStream) advance(final bool) error {
	n := len(s.front.feats)
	for t := len(s.labels); t < n; t++ {
		if !final && t+s.e.Context >= n {
			break
		}
		dsp.StackFrame(s.front.feats, t, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			return fmt.Errorf("asr: %s frame %d: %w", s.e.ID, t, err)
		}
		s.labels = append(s.labels, nn.Argmax(logits))
	}
	return nil
}

// labelsRange returns labels for frames [from,to): committed ones as-is,
// the tail recomputed provisionally with the current right-edge clamp.
func (s *mlpStream) labelsRange(from, to int) ([]int, error) {
	out := make([]int, 0, to-from)
	c := len(s.labels)
	for t := from; t < to && t < c; t++ {
		out = append(out, s.labels[t])
	}
	for t := max(from, c); t < to; t++ {
		dsp.StackFrame(s.front.feats, t, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			return nil, fmt.Errorf("asr: %s frame %d: %w", s.e.ID, t, err)
		}
		out = append(out, nn.Argmax(logits))
	}
	return out, nil
}

func (s *mlpStream) windowText(a, b int) (string, error) {
	first, end := windowFrames(a, b, s.e.MFCC.Config().Hop, len(s.front.feats))
	if first >= end {
		return "", nil
	}
	labels, err := s.labelsRange(first, end)
	if err != nil {
		return "", err
	}
	return s.feed.decodeFrames(labels, first, s.e.MFCC, s.e.Dec, a, b, s.e.ID)
}

func (s *mlpStream) finalText() (string, error) {
	return s.feed.decodeFinal(s.labels, s.e.MFCC, s.e.Dec, s.e.ID)
}

// --- RNN -------------------------------------------------------------

type rnnStream struct {
	e      *RNNEngine
	feed   *EnsembleStream
	front  *streamFront
	labels []int     // committed labels
	h      []float64 // hidden state after the last committed input
	// Working buffers: the next hidden state, the provisional tail's
	// ping-pong pair, the logits and the MFCC‖delta input row.
	nh, ph, pnh, y, in []float64
}

func newRNNStream(e *RNNEngine, feed *EnsembleStream, front *streamFront) *rnnStream {
	vec := func(n int) []float64 { return make([]float64, n) }
	hid := e.Net.Hidden
	return &rnnStream{e: e, feed: feed, front: front,
		h: vec(hid), nh: vec(hid), ph: vec(hid), pnh: vec(hid), y: vec(e.Net.Out), in: vec(2 * e.MFCC.Config().NumCoeffs)}
}

// input builds the network input for frame t, replicating the batch
// feature construction (MFCC row plus the width-2 regression deltas with
// edges clamped to the current frame count n). The row is reused by the
// next call.
func (s *rnnStream) input(t, n int) []float64 {
	feats := s.front.feats
	if !s.e.UseDeltas {
		return feats[t]
	}
	deltaRow(feats, t, n, s.in)
	return s.in
}

func (s *rnnStream) advance(final bool) error {
	n := len(s.front.feats)
	for t := len(s.labels); t < n; t++ {
		// A delta input reads frames t+1 and t+2; until they exist the
		// clamped value is provisional, so the hidden state must wait.
		if !final && s.e.UseDeltas && t+2 >= n {
			break
		}
		if err := s.e.Net.StepInto(s.input(t, n), s.h, s.nh, s.y); err != nil {
			return fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		s.h, s.nh = s.nh, s.h
		s.labels = append(s.labels, nn.Argmax(s.y))
	}
	return nil
}

func (s *rnnStream) labelsRange(from, to int) ([]int, error) {
	out := make([]int, 0, to-from)
	c := len(s.labels)
	for t := from; t < to && t < c; t++ {
		out = append(out, s.labels[t])
	}
	if to <= c {
		return out, nil
	}
	// Provisional tail: run the recurrence on a copy of the hidden state
	// from the first uncommitted input onward.
	n := len(s.front.feats)
	h, nh := s.ph, s.pnh
	copy(h, s.h)
	for t := c; t < to; t++ {
		if err := s.e.Net.StepInto(s.input(t, n), h, nh, s.y); err != nil {
			return nil, fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		h, nh = nh, h
		if t >= from {
			out = append(out, nn.Argmax(s.y))
		}
	}
	return out, nil
}

func (s *rnnStream) windowText(a, b int) (string, error) {
	first, end := windowFrames(a, b, s.e.MFCC.Config().Hop, len(s.front.feats))
	if first >= end {
		return "", nil
	}
	labels, err := s.labelsRange(first, end)
	if err != nil {
		return "", err
	}
	return s.feed.decodeFrames(labels, first, s.e.MFCC, s.e.Dec, a, b, s.e.ID)
}

func (s *rnnStream) finalText() (string, error) {
	return s.feed.decodeFinal(s.labels, s.e.MFCC, s.e.Dec, s.e.ID)
}

// --- GMM -------------------------------------------------------------

type gmmStream struct {
	e     *GMMEngine
	feed  *EnsembleStream
	front *streamFront
	v     *hmm.ViterbiState
}

func (s *gmmStream) advance(final bool) error {
	for t := s.v.Len(); t < len(s.front.feats); t++ {
		s.v.Step(s.front.feats[t])
	}
	return nil
}

func (s *gmmStream) windowText(a, b int) (string, error) {
	first, end := windowFrames(a, b, s.e.MFCC.Config().Hop, s.v.Len())
	if first >= end {
		return "", nil
	}
	// The provisional alignment is the best path given everything heard
	// so far, backtraced on demand as far back as the window reaches.
	path, _, err := s.v.PathFrom(first)
	if err != nil {
		return "", fmt.Errorf("asr: %s Viterbi: %w", s.e.ID, err)
	}
	return s.feed.decodeFrames(path[:end-first], first, s.e.MFCC, s.e.Dec, a, b, s.e.ID)
}

func (s *gmmStream) finalText() (string, error) {
	path, _, err := s.v.Path()
	if err != nil {
		return "", fmt.Errorf("asr: %s Viterbi: %w", s.e.ID, err)
	}
	return s.feed.decodeFinal(path, s.e.MFCC, s.e.Dec, s.e.ID)
}

// --- Weak ------------------------------------------------------------

type weakStream struct {
	e      *WeakEngine
	feed   *EnsembleStream
	front  *streamFront
	labels []int
}

func (s *weakStream) advance(final bool) error {
	e := s.e
	q := make([]float64, e.MFCC.Config().NumCoeffs)
	for t := len(s.labels); t < len(s.front.feats); t++ {
		f := s.front.feats[t]
		q = q[:len(f)]
		for i, v := range f {
			if e.Quant > 0 {
				q[i] = math.Round(v/e.Quant) * e.Quant
			} else {
				q[i] = v
			}
		}
		best, bestDist := -1, math.Inf(1)
		for ph, c := range e.Centroids {
			if c == nil {
				continue
			}
			var dist float64
			for i := range q {
				d := q[i] - c[i]
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = ph, dist
			}
		}
		if best < 0 {
			return fmt.Errorf("asr: %s has no trained centroids", e.ID)
		}
		s.labels = append(s.labels, best)
	}
	return nil
}

func (s *weakStream) windowText(a, b int) (string, error) {
	first, end := windowFrames(a, b, s.e.MFCC.Config().Hop, len(s.labels))
	if first >= end {
		return "", nil
	}
	return s.feed.decodeFrames(s.labels[first:end], first, s.e.MFCC, s.e.Dec, a, b, s.e.ID)
}

func (s *weakStream) finalText() (string, error) {
	return s.feed.decodeFinal(s.labels, s.e.MFCC, s.e.Dec, s.e.ID)
}

// --- batch fallback --------------------------------------------------

// batchStream wraps engines without an incremental form (CTC, external
// implementations): windows are transcribed as standalone clips and the
// final pass re-transcribes the accumulated signal, which by construction
// matches the batch path.
type batchStream struct {
	e    Recognizer
	feed *EnsembleStream
}

func (s *batchStream) advance(final bool) error { return nil }

func (s *batchStream) windowText(a, b int) (string, error) {
	clip := &audio.Clip{SampleRate: s.feed.rate, Samples: s.feed.samples[a:b]}
	return s.e.Transcribe(clip)
}

func (s *batchStream) finalText() (string, error) {
	clip := &audio.Clip{SampleRate: s.feed.rate, Samples: s.feed.samples}
	return s.e.Transcribe(clip)
}
