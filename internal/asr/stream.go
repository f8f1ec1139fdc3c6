package asr

import (
	"context"
	"fmt"
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
//     frame 0, which always exists). A final label is computed the first
//     time a window or the final pass reads it ungated: a frame the energy
//     gate silences in every read is never forwarded.
//   - Weak engines are per-frame classifiers: an MLP with no context.
//   - RNN engines with deltas consume inputs built from frames t±2, so
//     input t is final once frame t+2 exists; the hidden state advances
//     only over final inputs, and provisional tails run on a copy.
//   - GMM engines have no future context: the Viterbi lattice advances
//     per frame, and a provisional path is a backtrace on demand.
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
	// tail is the work around the acoustic models that every window,
	// every engine and the final pass share (energy gate sums, lexicon
	// matches, scratch). It lives and dies with the session, which
	// MaxDuration bounds.
	tail   tailWork
	labels []int // the labels being decoded
}

// engineStream is one engine's place in the session: its incremental
// labeller, or none for an engine without an incremental form (CTC,
// external implementations), whose windows are transcribed as standalone
// clips and whose final pass re-transcribes the accumulated signal, which
// by construction matches the batch path.
type engineStream struct {
	e     Recognizer
	m     *dsp.MFCC
	dec   *Decoder
	front *streamFront
	frameLabels
}

// frameLabels is the per-architecture incremental state.
type frameLabels interface {
	// advance consumes the front's new frames; with final=true the tail
	// frames are committed with end-of-clip clamping.
	advance(feats [][]float64, final bool) error
	// labels appends the labels of frames [from,to) to dst, committed
	// ones as they are, the rest provisionally with the current
	// right-edge clamp. silent is the energy gate's verdict on each: a
	// labeller whose frames are independent leaves those unlabelled.
	labels(ctx context.Context, dst []int, feats [][]float64, from, to int, silent []bool) ([]int, error)
	reset()
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
		st := &es.streams[i]
		st.e = eng
		m, rate := frontEndOf(eng)
		// CTC's beam search has no incremental form, front end or not.
		if _, ctc := eng.(*CTCEngine); m == nil || ctc {
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
		st.m, st.front = m, es.fronts[fi]
		switch e := eng.(type) {
		case *MLPEngine:
			st.dec, st.frameLabels = e.Dec, &lazyLabels{context: e.Context, label: e.frameLabeler()}
		case *WeakEngine:
			st.dec, st.frameLabels = e.Dec, &lazyLabels{label: e.frameLabeler()}
		case *RNNEngine:
			st.dec, st.frameLabels = e.Dec, newRNNStream(e)
		case *GMMEngine:
			st.dec, st.frameLabels = e.Dec, &gmmStream{e: e, v: e.Model.Stream()}
		}
	}
	if len(ms) > 0 {
		es.front = dsp.NewFrontEnd(ms).Stream()
	}
	return es, nil
}

// Reset empties the stream for another session over the same engines:
// everything heard, labelled and remembered is dropped, every buffer —
// the samples, the front end's rows, the lattice — is kept. Slices handed
// out before (Samples) are overwritten by the next session.
func (es *EnsembleStream) Reset() {
	es.samples = es.samples[:0]
	if es.front != nil {
		es.front.Reset()
	}
	for _, f := range es.fronts {
		f.feats = f.feats[:0]
	}
	for _, st := range es.streams {
		if st.frameLabels != nil {
			st.reset()
		}
	}
	es.finalized = false
	es.tail.reset()
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
	es.samples = slices.Grow(es.samples, max(0, n-len(es.samples)))
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
	if es.front == nil {
		return nil
	}
	rows, err := es.front.Push(chunk)
	if err != nil {
		return err
	}
	return es.collect(rows, false)
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
		if err := es.collect(tail, true); err != nil {
			return err
		}
	}
	es.finalized = true
	return nil
}

// collect appends the front end's newly emitted rows to its members'
// frame lists and advances every engine over them.
func (es *EnsembleStream) collect(rows [][][]float64, final bool) error {
	for i, f := range es.fronts {
		f.feats = append(f.feats, rows[i]...)
	}
	for _, st := range es.streams {
		if st.frameLabels == nil {
			continue
		}
		if err := st.advance(st.front.feats, final); err != nil {
			return err
		}
	}
	return nil
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
	st := &es.streams[i]
	if st.frameLabels == nil {
		return st.e.Transcribe(&audio.Clip{SampleRate: es.rate, Samples: es.samples[a:b]})
	}
	first, end := windowFrames(a, b, st.m.Config().Hop, len(st.front.feats))
	if first >= end {
		return "", nil
	}
	return es.decodeFrames(context.Background(), st, first, end, a, b)
}

// FinalText returns engine i's transcription of the whole streamed clip,
// bit-identical to the engine's batch Transcribe. Must be preceded by
// Finalize. ctx is consulted while an engine labels frames no window ever
// read (a session that stopped evaluating windows and kept listening).
func (es *EnsembleStream) FinalText(ctx context.Context, i int) (string, error) {
	if !es.finalized {
		return "", fmt.Errorf("asr: FinalText before Finalize")
	}
	st := &es.streams[i]
	if st.frameLabels == nil {
		return st.e.Transcribe(&audio.Clip{SampleRate: es.rate, Samples: es.samples})
	}
	return es.decodeFrames(ctx, st, 0, len(st.front.feats), 0, len(es.samples))
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

// decodeFrames transcribes frames [from,to) of one engine: the energy
// gate against samples [a,b) first, then the labels of the frames it
// leaves, then the word decode. A window passes its own range: frames
// whose RMS is below energyGateRatio times the window's are forced to
// silence, indexed absolutely into the shared sample buffer since engine
// frame geometries may differ. The final pass passes the whole clip from
// frame 0, which is exactly TranscribeWithCache.
func (es *EnsembleStream) decodeFrames(ctx context.Context, st *engineStream, from, to, a, b int) (string, error) {
	mc := st.m.Config()
	silent := es.tail.silent(from, to-from, es.samples, a, b, mc.FrameLen, mc.Hop, energyGateRatio)
	labels, err := st.labels(ctx, es.labels[:0], st.front.feats, from, to, silent)
	if err != nil {
		return "", err
	}
	es.labels = labels
	silence(labels, silent)
	text, err := st.dec.decode(labels, &es.tail)
	if err != nil {
		return "", fmt.Errorf("asr: %s decoding: %w", st.e.Name(), err)
	}
	return text, nil
}

// --- MLP, Weak -------------------------------------------------------

// lazyLabels is the state of a frame classifier that reads context
// frames either side: known holds the label of every frame whose context
// is complete, -1 until it is first needed.
type lazyLabels struct {
	context int
	label   func(feats [][]float64, t int) (int, error)
	known   []int
}

func (s *lazyLabels) reset() { s.known = s.known[:0] }

func (s *lazyLabels) advance(feats [][]float64, final bool) error {
	committed := len(feats)
	if !final {
		committed -= s.context
	}
	for len(s.known) < committed {
		s.known = append(s.known, -1)
	}
	return nil
}

func (s *lazyLabels) labels(ctx context.Context, dst []int, feats [][]float64, from, to int, silent []bool) ([]int, error) {
	for t := from; t < to; t++ {
		l := -1
		if t < len(s.known) {
			l = s.known[t]
		}
		if l < 0 && !silent[t-from] {
			// A session that stopped reading windows labels its whole
			// backlog in the final pass: stay cancellable through it.
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var err error
			if l, err = s.label(feats, t); err != nil {
				return nil, err
			}
			if t < len(s.known) {
				s.known[t] = l
			}
		}
		dst = append(dst, l)
	}
	return dst, nil
}

// --- RNN -------------------------------------------------------------

type rnnStream struct {
	e     *RNNEngine
	known []int     // committed labels
	h     []float64 // hidden state after the last committed input
	// Working buffers: the next hidden state, the provisional tail's
	// ping-pong pair, the logits and the MFCC‖delta input row.
	nh, ph, pnh, y, in []float64
}

func newRNNStream(e *RNNEngine) *rnnStream {
	vec := func(n int) []float64 { return make([]float64, n) }
	hid := e.Net.Hidden
	return &rnnStream{e: e,
		h: vec(hid), nh: vec(hid), ph: vec(hid), pnh: vec(hid), y: vec(e.Net.Out), in: vec(2 * e.MFCC.Config().NumCoeffs)}
}

func (s *rnnStream) reset() {
	s.known = s.known[:0]
	clear(s.h)
}

// input builds the network input for frame t, replicating the batch
// feature construction (MFCC row plus the width-2 regression deltas with
// edges clamped to the current frame count). The row is reused by the
// next call.
func (s *rnnStream) input(feats [][]float64, t int) []float64 {
	if !s.e.UseDeltas {
		return feats[t]
	}
	deltaRow(feats, t, len(feats), s.in)
	return s.in
}

func (s *rnnStream) advance(feats [][]float64, final bool) error {
	n := len(feats)
	for t := len(s.known); t < n; t++ {
		// A delta input reads frames t+1 and t+2; until they exist the
		// clamped value is provisional, so the hidden state must wait.
		if !final && s.e.UseDeltas && t+2 >= n {
			break
		}
		if err := s.e.Net.StepInto(s.input(feats, t), s.h, s.nh, s.y); err != nil {
			return fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		s.h, s.nh = s.nh, s.h
		s.known = append(s.known, nn.Argmax(s.y))
	}
	return nil
}

func (s *rnnStream) labels(_ context.Context, dst []int, feats [][]float64, from, to int, _ []bool) ([]int, error) {
	c := len(s.known)
	dst = append(dst, s.known[min(from, c):min(to, c)]...)
	// Provisional tail: run the recurrence on a copy of the hidden state
	// from the first uncommitted input onward.
	h, nh := s.ph, s.pnh
	copy(h, s.h)
	for t := c; t < to; t++ {
		if err := s.e.Net.StepInto(s.input(feats, t), h, nh, s.y); err != nil {
			return nil, fmt.Errorf("asr: %s forward: %w", s.e.ID, err)
		}
		h, nh = nh, h
		if t >= from {
			dst = append(dst, nn.Argmax(s.y))
		}
	}
	return dst, nil
}

// --- GMM -------------------------------------------------------------

type gmmStream struct {
	e *GMMEngine
	v *hmm.ViterbiState
}

func (s *gmmStream) reset() { s.v.Reset() }

func (s *gmmStream) advance(feats [][]float64, final bool) error {
	for t := s.v.Len(); t < len(feats); t++ {
		s.v.Step(feats[t])
	}
	return nil
}

// labels is the best path given everything heard so far, backtraced on
// demand as far back as the range reaches.
func (s *gmmStream) labels(_ context.Context, dst []int, _ [][]float64, from, to int, _ []bool) ([]int, error) {
	path, _, err := s.v.PathFrom(from)
	if err != nil {
		return nil, fmt.Errorf("asr: %s Viterbi: %w", s.e.ID, err)
	}
	return append(dst, path[:to-from]...), nil
}
