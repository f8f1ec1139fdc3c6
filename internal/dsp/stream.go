package dsp

import (
	"fmt"
	"math"
)

// StreamingMFCC is the frame-incremental counterpart of MFCC.Extract for
// live audio: samples arrive in arbitrary chunks via Push, and frames are
// emitted the moment a full analysis window of signal exists. The
// per-frame arithmetic is byte-for-byte the inference path of
// MFCC.extract — the same pre-emphasis recurrence, window coefficients,
// packed real FFT, mel filterbank, log floor, and DCT plan — so feeding a
// clip through Push/Flush in any chunk schedule produces a feature matrix
// bit-identical to one Extract call on the whole clip.
//
// A StreamingMFCC is stateful and owned by one goroutine (one per audio
// session); the parent *MFCC stays shared and concurrency-safe.
type StreamingMFCC struct {
	m   *MFCC
	cfg MFCCConfig

	// pre holds the pre-emphasized (or raw, when PreEmph is 0) signal
	// from absolute sample index base onward; consumed prefixes are
	// dropped after each Push so memory stays O(FrameLen + chunk).
	pre  []float64
	base int

	total   int     // samples pushed so far
	next    int     // index of the next frame to emit
	lastRaw float64 // raw x[total-1], the pre-emphasis carry across chunks
	flushed bool

	// Dedicated scratch: the streaming path is single-owner, so it keeps
	// its working set instead of round-tripping the extractor's pool.
	buf    []complex128
	frame  []float64
	power  []float64
	mel    []float64
	logMel []float64
}

// Stream returns a fresh streaming extractor over m's configuration.
func (m *MFCC) Stream() *StreamingMFCC {
	cfg := m.cfg
	return &StreamingMFCC{
		m:      m,
		cfg:    cfg,
		buf:    make([]complex128, cfg.FFTSize),
		frame:  make([]float64, cfg.FFTSize),
		power:  make([]float64, cfg.FFTSize/2+1),
		mel:    make([]float64, cfg.NumFilters),
		logMel: make([]float64, cfg.NumFilters),
	}
}

// Config returns the (defaulted) configuration of the extractor.
func (s *StreamingMFCC) Config() MFCCConfig { return s.cfg }

// Total returns the number of samples pushed so far.
func (s *StreamingMFCC) Total() int { return s.total }

// Emitted returns the number of frames emitted so far.
func (s *StreamingMFCC) Emitted() int { return s.next }

// Reset returns the extractor to its initial state so a new stream can be
// fed without reallocating the working set.
func (s *StreamingMFCC) Reset() {
	s.pre = s.pre[:0]
	s.base = 0
	s.total = 0
	s.next = 0
	s.lastRaw = 0
	s.flushed = false
}

// Push appends a chunk of samples and returns the frames completed by it:
// every frame whose full FrameLen of signal now exists. Rows of one Push
// share a backing array, as in Extract. The returned slice is valid
// indefinitely (rows are not reused); it is nil when no frame completed.
func (s *StreamingMFCC) Push(x []float64) ([][]float64, error) {
	if s.flushed {
		return nil, fmt.Errorf("dsp: Push after Flush on streaming MFCC")
	}
	if len(x) == 0 {
		return nil, nil
	}
	cfg := s.cfg
	// Pre-emphasize the chunk, carrying x[-1] across the chunk boundary.
	// This reproduces extract's s.pre[0]=x[0]; s.pre[i]=x[i]-a*x[i-1].
	// trim leaves less than one frame of tail between pushes, so a frame
	// of slack makes this capacity fit every later chunk of the same size
	// (growing to the exact need reallocated on almost every push).
	if need := len(s.pre) + len(x); need > cap(s.pre) {
		grown := make([]float64, len(s.pre), need+cfg.FrameLen)
		copy(grown, s.pre)
		s.pre = grown
	}
	if cfg.PreEmph != 0 {
		prev := s.lastRaw
		for i, v := range x {
			if s.total == 0 && i == 0 {
				s.pre = append(s.pre, v)
			} else {
				s.pre = append(s.pre, v-cfg.PreEmph*prev)
			}
			prev = v
		}
	} else {
		s.pre = append(s.pre, x...)
	}
	s.lastRaw = x[len(x)-1]
	s.total += len(x)

	// Emit every frame that now has FrameLen real samples. Partial tail
	// frames wait for Flush, exactly matching NumFrames' zero-padding.
	first := s.next
	nReady := 0
	for f := s.next; f*cfg.Hop+cfg.FrameLen <= s.total; f++ {
		nReady++
	}
	if nReady == 0 {
		return nil, nil
	}
	feats := make([][]float64, nReady)
	rows := make([]float64, nReady*cfg.NumCoeffs)
	for i := 0; i < nReady; i++ {
		f := first + i
		out := rows[i*cfg.NumCoeffs : (i+1)*cfg.NumCoeffs : (i+1)*cfg.NumCoeffs]
		if err := s.emit(f, cfg.FrameLen, out); err != nil {
			return nil, err
		}
		feats[i] = out
	}
	s.next = first + nReady
	s.trim()
	return feats, nil
}

// Flush emits the remaining zero-padded tail frames so that the total
// frame count equals NumFrames(Total(), FrameLen, Hop), then seals the
// stream. Flushing an empty stream is an error, mirroring Extract on an
// empty signal.
func (s *StreamingMFCC) Flush() ([][]float64, error) {
	if s.flushed {
		return nil, fmt.Errorf("dsp: Flush called twice on streaming MFCC")
	}
	if s.total == 0 {
		return nil, fmt.Errorf("dsp: cannot extract MFCC from empty signal")
	}
	s.flushed = true
	cfg := s.cfg
	nf := NumFrames(s.total, cfg.FrameLen, cfg.Hop)
	if s.next >= nf {
		return nil, nil
	}
	nTail := nf - s.next
	feats := make([][]float64, nTail)
	rows := make([]float64, nTail*cfg.NumCoeffs)
	for i := 0; i < nTail; i++ {
		f := s.next + i
		avail := s.total - f*cfg.Hop
		if avail > cfg.FrameLen {
			avail = cfg.FrameLen
		}
		if avail < 0 {
			avail = 0
		}
		out := rows[i*cfg.NumCoeffs : (i+1)*cfg.NumCoeffs : (i+1)*cfg.NumCoeffs]
		if err := s.emit(s.next+i, avail, out); err != nil {
			return nil, err
		}
		feats[i] = out
	}
	s.next = nf
	return feats, nil
}

// emit computes frame f (with avail real samples, zero-padded to FFTSize)
// into out, replicating the inference branch of MFCC.extract.
func (s *StreamingMFCC) emit(f, avail int, out []float64) error {
	cfg := s.cfg
	start := f*cfg.Hop - s.base
	frame := s.frame
	for i := 0; i < avail; i++ {
		frame[i] = s.pre[start+i] * s.m.window[i]
	}
	for i := avail; i < cfg.FFTSize; i++ {
		frame[i] = 0
	}
	s.m.rfft.power(frame, s.buf, s.power)
	mel, err := s.m.bank.ApplyInto(s.power, s.mel)
	if err != nil {
		return err
	}
	for i, v := range mel {
		s.logMel[i] = math.Log(v + cfg.LogFloor)
	}
	s.m.dct.Into(s.logMel, out)
	return nil
}

// trim drops the consumed prefix of the pre-emphasized buffer: samples
// before the next frame's start are never read again.
func (s *StreamingMFCC) trim() {
	keepFrom := s.next * s.cfg.Hop
	if keepFrom > s.total {
		keepFrom = s.total
	}
	off := keepFrom - s.base
	if off <= 0 {
		return
	}
	n := copy(s.pre, s.pre[off:])
	s.pre = s.pre[:n]
	s.base = keepFrom
}
