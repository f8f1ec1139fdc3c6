package dsp

import "fmt"

// FrontEndStream is the frame-incremental counterpart of FrontEnd.Extract
// for live audio: samples arrive in arbitrary chunks via Push, and every
// spectrum group emits its frames the moment a full analysis window of
// signal exists. The per-frame path is FrontEnd.emit itself — the same
// pre-emphasis recurrence, frame kernel, mel banks, log floors and DCT
// plans — so feeding a clip through Push/Flush in any chunk schedule gives
// every member a feature matrix bit-identical to one Extract call on the
// whole clip.
//
// A FrontEndStream is stateful and owned by one goroutine (one per audio
// session); the FrontEnd and its extractors stay shared.
type FrontEndStream struct {
	fe *FrontEnd

	// pre holds one rolling pre-emphasized (or raw, when PreEmph is 0)
	// signal per pre-emphasis group, from absolute sample base on; next is
	// each spectrum group's next frame to emit. Prefixes no group will
	// read again are dropped after each Push so memory stays
	// O(FrameLen + chunk).
	pre  [][]float64
	base []int
	next []int

	total   int     // samples pushed so far
	lastRaw float64 // raw x[total-1], the pre-emphasis carry across chunks
	flushed bool

	// Dedicated scratch, result slots and row memory: the streaming path
	// is single-owner, so it keeps its working set instead of
	// round-tripping the extractors' pools.
	scratch []*mfccScratch
	out     [][][]float64
	store   rowStore
}

// Stream returns a fresh streaming front end over fe's extractors.
func (fe *FrontEnd) Stream() *FrontEndStream {
	s := &FrontEndStream{
		fe:      fe,
		pre:     make([][]float64, len(fe.pres)),
		base:    make([]int, len(fe.pres)),
		next:    make([]int, len(fe.groups)),
		scratch: make([]*mfccScratch, len(fe.ms)),
		out:     make([][][]float64, len(fe.ms)),
	}
	for i, m := range fe.ms {
		s.scratch[i] = m.newScratch()
	}
	return s
}

// Reset returns the stream to its initial state so a new signal can be
// fed without reallocating the working set. The rows of the previous
// signal are overwritten by the next one's.
func (s *FrontEndStream) Reset() {
	for p := range s.pre {
		s.pre[p] = s.pre[p][:0]
	}
	s.store.cur, s.store.off = 0, 0
	clear(s.base)
	clear(s.next)
	s.total = 0
	s.lastRaw = 0
	s.flushed = false
}

// Push appends a chunk of samples and returns, indexed like the front
// end's extractors, the frames it completed: every frame whose full
// FrameLen of signal now exists (none for a member without one). The
// rows stay valid until Reset; the slices that list them are reused by
// the next Push or Flush.
func (s *FrontEndStream) Push(x []float64) ([][][]float64, error) {
	if s.flushed {
		return nil, fmt.Errorf("dsp: Push after Flush on streaming MFCC")
	}
	s.clearOut()
	if len(x) == 0 {
		return s.out, nil
	}
	for p, coef := range s.fe.pres {
		// trim leaves less than one frame of tail between pushes, so a
		// frame of slack makes this capacity fit every later chunk of the
		// same size (growing to the exact need reallocated on almost
		// every push).
		n := len(s.pre[p])
		if need := n + len(x); need > cap(s.pre[p]) {
			s.pre[p] = append(make([]float64, 0, need+s.fe.slack), s.pre[p]...)
		}
		s.pre[p] = s.pre[p][:n+len(x)]
		switch dst := s.pre[p][n:]; {
		case coef == 0:
			copy(dst, x)
		case s.total == 0:
			dst[0] = x[0]
			preEmphasize(dst[1:], x[1:], coef, x[0])
		default:
			preEmphasize(dst, x, coef, s.lastRaw)
		}
	}
	s.lastRaw = x[len(x)-1]
	s.total += len(x)
	// Emit every frame that now has FrameLen real samples. Partial tail
	// frames wait for Flush, exactly matching NumFrames' zero-padding.
	for gi := range s.fe.groups {
		cfg := s.fe.groups[gi].lead.cfg
		if s.total >= cfg.FrameLen {
			s.emit(gi, (s.total-cfg.FrameLen)/cfg.Hop+1)
		}
	}
	s.trim()
	return s.out, nil
}

// Flush emits the remaining zero-padded tail frames so that every
// member's frame count equals NumFrames(total, FrameLen, Hop), then seals
// the stream. Flushing an empty stream is an error, mirroring Extract on
// an empty signal.
func (s *FrontEndStream) Flush() ([][][]float64, error) {
	if s.flushed {
		return nil, fmt.Errorf("dsp: Flush called twice on streaming MFCC")
	}
	if s.total == 0 {
		return nil, fmt.Errorf("dsp: cannot extract MFCC from empty signal")
	}
	s.flushed = true
	s.clearOut()
	for gi := range s.fe.groups {
		cfg := s.fe.groups[gi].lead.cfg
		s.emit(gi, NumFrames(s.total, cfg.FrameLen, cfg.Hop))
	}
	return s.out, nil
}

// clearOut empties every member's result slot, keeping its capacity.
func (s *FrontEndStream) clearOut() {
	for i := range s.out {
		s.out[i] = s.out[i][:0]
	}
}

// emit advances spectrum group gi to upTo emitted frames.
func (s *FrontEndStream) emit(gi, upTo int) {
	if upTo <= s.next[gi] {
		return
	}
	g := &s.fe.groups[gi]
	s.fe.emit(g, s.pre[g.pre], s.base[g.pre], s.next[gi], upTo-s.next[gi], s.scratch, s.out, &s.store)
	s.next[gi] = upTo
}

// trim drops the consumed prefix of each rolling signal: samples before
// the start of every reader's next frame are never read again.
func (s *FrontEndStream) trim() {
	for p := range s.pre {
		keepFrom := s.total
		for gi, g := range s.fe.groups {
			if g.pre == p {
				keepFrom = min(keepFrom, s.next[gi]*g.lead.cfg.Hop)
			}
		}
		if off := keepFrom - s.base[p]; off > 0 {
			s.pre[p] = s.pre[p][:copy(s.pre[p], s.pre[p][off:])]
			s.base[p] = keepFrom
		}
	}
}

// StreamingMFCC is a FrontEndStream over one extractor.
type StreamingMFCC struct{ s *FrontEndStream }

// Stream returns a fresh streaming extractor over m's configuration.
func (m *MFCC) Stream() *StreamingMFCC { return &StreamingMFCC{m.solo.Stream()} }

// Reset returns the extractor to its initial state.
func (s *StreamingMFCC) Reset() { s.s.Reset() }

// Push appends a chunk of samples and returns the frames completed by it
// (nil when none); see FrontEndStream.Push.
func (s *StreamingMFCC) Push(x []float64) ([][]float64, error) {
	rows, err := s.s.Push(x)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Flush emits the zero-padded tail frames and seals the stream; see
// FrontEndStream.Flush.
func (s *StreamingMFCC) Flush() ([][]float64, error) {
	rows, err := s.s.Flush()
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}
