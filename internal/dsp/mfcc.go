package dsp

import (
	"fmt"
	"math"
	"sync"
)

// MFCCConfig configures an MFCC extractor. Different ASR engines in this
// repository deliberately use different configurations, mirroring the
// feature-front-end diversity of real ASR systems.
type MFCCConfig struct {
	SampleRate int        // samples per second
	FrameLen   int        // analysis frame length in samples
	Hop        int        // frame advance in samples
	FFTSize    int        // FFT length (>= FrameLen, power of two); 0 means NextPow2(FrameLen)
	NumFilters int        // mel filterbank size
	NumCoeffs  int        // number of cepstral coefficients kept
	PreEmph    float64    // pre-emphasis coefficient (0 disables)
	Window     WindowKind // analysis window
	LowHz      float64    // filterbank lower edge
	HighHz     float64    // filterbank upper edge (0 means Nyquist)
	LogFloor   float64    // additive floor inside the log (0 means 1e-10)
}

// DefaultMFCCConfig returns the configuration shared by the DeepSpeech-like
// engines: 32 ms frames, 16 ms hop at 8 kHz, 20 mel filters, 13 cepstra.
func DefaultMFCCConfig(sampleRate int) MFCCConfig {
	return MFCCConfig{
		SampleRate: sampleRate,
		FrameLen:   sampleRate * 32 / 1000,
		Hop:        sampleRate * 16 / 1000,
		NumFilters: 20,
		NumCoeffs:  13,
		PreEmph:    0.97,
		Window:     WindowHamming,
		LowHz:      80,
		HighHz:     0,
		LogFloor:   1e-10,
	}
}

func (c MFCCConfig) withDefaults() MFCCConfig {
	if c.FFTSize == 0 {
		c.FFTSize = NextPow2(c.FrameLen)
	}
	if c.HighHz == 0 {
		c.HighHz = float64(c.SampleRate) / 2
	}
	if c.LogFloor == 0 {
		c.LogFloor = 1e-10
	}
	if c.Window == 0 {
		c.Window = WindowHamming
	}
	return c
}

// Fingerprint returns a canonical string covering every field of the
// defaulted configuration. Two extractors produce identical features if
// and only if their fingerprints match, so the string is safe to use as a
// feature-cache key across engines.
func (c MFCCConfig) Fingerprint() string {
	c = c.withDefaults()
	return fmt.Sprintf("sr=%d|frame=%d|hop=%d|fft=%d|filters=%d|coeffs=%d|preemph=%g|win=%d|low=%g|high=%g|floor=%g",
		c.SampleRate, c.FrameLen, c.Hop, c.FFTSize, c.NumFilters, c.NumCoeffs,
		c.PreEmph, int(c.Window), c.LowHz, c.HighHz, c.LogFloor)
}

// SpectrumFingerprint covers only the fields upstream of the mel bank:
// extractors with equal spectrum fingerprints window, pad and transform
// every frame identically, so one power spectrum per frame serves all of
// them (a FrontEnd's spectrum group). The filterbank shape, the cepstrum
// count and the log floor act after it and are left out.
func (c MFCCConfig) SpectrumFingerprint() string {
	c = c.withDefaults()
	return fmt.Sprintf("sr=%d|frame=%d|hop=%d|fft=%d|preemph=%g|win=%d",
		c.SampleRate, c.FrameLen, c.Hop, c.FFTSize, c.PreEmph, int(c.Window))
}

// Validate reports whether the configuration is internally consistent.
func (c MFCCConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.SampleRate <= 0:
		return fmt.Errorf("dsp: sample rate %d must be positive", c.SampleRate)
	case c.FrameLen <= 0 || c.Hop <= 0:
		return fmt.Errorf("dsp: frame length %d and hop %d must be positive", c.FrameLen, c.Hop)
	case c.FFTSize < c.FrameLen:
		return fmt.Errorf("dsp: FFT size %d smaller than frame length %d", c.FFTSize, c.FrameLen)
	case c.FFTSize < 2 || c.FFTSize&(c.FFTSize-1) != 0:
		return fmt.Errorf("dsp: FFT size %d is not a power of two >= 2", c.FFTSize)
	case c.NumFilters <= 0 || c.NumCoeffs <= 0:
		return fmt.Errorf("dsp: filters %d and coefficients %d must be positive", c.NumFilters, c.NumCoeffs)
	case c.NumCoeffs > c.NumFilters:
		return fmt.Errorf("dsp: cannot keep %d cepstra from %d filters", c.NumCoeffs, c.NumFilters)
	}
	return nil
}

// MFCC extracts mel-frequency cepstral coefficients and can run the
// analytic backward pass used by gradient-based audio attacks. One
// extractor is safe for concurrent use: per-call working memory comes
// from an internal sync.Pool, so steady-state extraction does O(1) heap
// allocations per clip instead of several per frame.
type MFCC struct {
	cfg    MFCCConfig
	fp     string // cfg.Fingerprint(), formatted once
	sfp    string // cfg.SpectrumFingerprint(), formatted once
	window []float64
	rfft   realPlan // frame-kernel plan for cfg.FFTSize
	bank   *MelBank
	dct    *DCT2Plan
	solo   *FrontEnd // the one-member front end behind Extract and Stream
	pool   sync.Pool // *mfccScratch
}

// mfccScratch is the reusable working set of one extract call. It is
// owned by exactly one goroutine between pool Get and Put.
type mfccScratch struct {
	pre    []float64    // pre-emphasized signal (grown to clip length)
	buf    []complex128 // FFTSize FFT workspace
	power  []float64    // FFTSize/2+1 power bins
	mel    []float64    // NumFilters mel energies
	logMel []float64    // NumFilters log energies
}

// NewMFCC builds an extractor for the given configuration.
func NewMFCC(cfg MFCCConfig) (*MFCC, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	win, err := Window(cfg.Window, cfg.FrameLen)
	if err != nil {
		return nil, err
	}
	bank, err := NewMelBank(cfg.NumFilters, cfg.FFTSize, float64(cfg.SampleRate), cfg.LowHz, cfg.HighHz)
	if err != nil {
		return nil, err
	}
	m := &MFCC{cfg: cfg, fp: cfg.Fingerprint(), sfp: cfg.SpectrumFingerprint(), window: win,
		rfft: newRealPlan(cfg.FFTSize), bank: bank, dct: NewDCT2Plan(cfg.NumFilters, cfg.NumCoeffs)}
	m.solo = NewFrontEnd([]*MFCC{m})
	m.pool.New = func() any { return m.newScratch() }
	return m, nil
}

func (m *MFCC) newScratch() *mfccScratch {
	return &mfccScratch{
		buf:    make([]complex128, m.cfg.FFTSize),
		power:  make([]float64, m.cfg.FFTSize/2+1),
		mel:    make([]float64, m.cfg.NumFilters),
		logMel: make([]float64, m.cfg.NumFilters),
	}
}

// Config returns the (defaulted) configuration of the extractor.
func (m *MFCC) Config() MFCCConfig { return m.cfg }

// Fingerprint returns Config().Fingerprint() without reformatting it:
// the per-clip and per-session feature caches look it up on every call.
func (m *MFCC) Fingerprint() string { return m.fp }

// SpectrumFingerprint returns Config().SpectrumFingerprint() without
// reformatting it.
func (m *MFCC) SpectrumFingerprint() string { return m.sfp }

// MFCCState captures the intermediate activations of one Extract call so
// that Backward can propagate gradients to the waveform.
type MFCCState struct {
	inputLen int
	spectra  [][]complex128 // per frame, FFTSize full-length spectrum
	melPlus  [][]float64    // per frame, mel energy + LogFloor
}

// NumFrames returns the frame count for a signal of n samples.
func (m *MFCC) NumFrames(n int) int {
	return NumFrames(n, m.cfg.FrameLen, m.cfg.Hop)
}

// Extract computes the MFCC matrix (frames x NumCoeffs) of signal x.
func (m *MFCC) Extract(x []float64) ([][]float64, error) {
	feats, err := m.solo.Extract(x)
	if err != nil {
		return nil, err
	}
	return feats[0], nil
}

// cepstra maps one frame's power spectrum to this extractor's
// coefficients: sparse mel bank, floored log, DCT-II. s.mel is left
// holding the mel energies.
func (m *MFCC) cepstra(power []float64, s *mfccScratch, out []float64) {
	m.bank.apply(power, s.mel)
	for i, v := range s.mel {
		s.logMel[i] = math.Log(v + m.cfg.LogFloor)
	}
	m.dct.Into(s.logMel, out)
}

// preEmphasized returns the first-order high-pass of x that every frame
// is cut from — y[0] = x[0], y[i] = x[i] - coef·x[i-1] — in s.pre, or x
// itself when coef is 0.
func preEmphasized(x []float64, coef float64, s *mfccScratch) []float64 {
	if coef == 0 {
		return x
	}
	if cap(s.pre) < len(x) {
		s.pre = make([]float64, len(x))
	}
	s.pre = s.pre[:len(x)]
	s.pre[0] = x[0]
	preEmphasize(s.pre[1:], x[1:], coef, x[0])
	return s.pre
}

// preEmphasize writes dst[i] = x[i] - coef·x[i-1], with prev standing in
// for x[-1] (the carry across a chunk boundary).
func preEmphasize(dst, x []float64, coef, prev float64) {
	for i, v := range x {
		dst[i] = v - coef*prev
		prev = v
	}
}

// ExtractWithState computes MFCCs and also returns the state needed by
// Backward. The backward pass needs the full complex spectrum of every
// frame, so the gradient path keeps the full-size transform; everything
// downstream of the power spectrum is the inference path's.
func (m *MFCC) ExtractWithState(x []float64) ([][]float64, *MFCCState, error) {
	if len(x) == 0 {
		return nil, nil, fmt.Errorf("dsp: cannot extract MFCC from empty signal")
	}
	cfg := m.cfg
	s := m.pool.Get().(*mfccScratch)
	defer m.pool.Put(s)
	pre := preEmphasized(x, cfg.PreEmph, s)
	nf := NumFrames(len(x), cfg.FrameLen, cfg.Hop)
	st := &MFCCState{
		inputLen: len(x),
		spectra:  make([][]complex128, nf),
		melPlus:  make([][]float64, nf),
	}
	feats := make([][]float64, nf)
	rows := make([]float64, nf*cfg.NumCoeffs)
	buf := s.buf
	for f := range feats {
		start := f * cfg.Hop
		avail := min(max(len(pre)-start, 0), cfg.FrameLen)
		for i := 0; i < avail; i++ {
			buf[i] = complex(pre[start+i]*m.window[i], 0)
		}
		for i := avail; i < cfg.FFTSize; i++ {
			buf[i] = 0
		}
		if err := FFT(buf); err != nil {
			return nil, nil, err
		}
		for k := range s.power {
			re, im := real(buf[k]), imag(buf[k])
			s.power[k] = re*re + im*im
		}
		feats[f] = rows[f*cfg.NumCoeffs : (f+1)*cfg.NumCoeffs : (f+1)*cfg.NumCoeffs]
		m.cepstra(s.power, s, feats[f])
		melPlus := make([]float64, len(s.mel))
		for i, v := range s.mel {
			melPlus[i] = v + cfg.LogFloor
		}
		st.melPlus[f] = melPlus
		st.spectra[f] = append([]complex128(nil), buf...)
	}
	return feats, st, nil
}

// Backward propagates a per-frame gradient over MFCC coefficients back to a
// gradient over the raw waveform samples (the input of Extract). grad must
// have the same shape as the features returned by the paired
// ExtractWithState call.
func (m *MFCC) Backward(grad [][]float64, st *MFCCState) ([]float64, error) {
	if st == nil {
		return nil, fmt.Errorf("dsp: Backward requires state from ExtractWithState")
	}
	if len(grad) != len(st.spectra) {
		return nil, fmt.Errorf("dsp: gradient has %d frames, state has %d", len(grad), len(st.spectra))
	}
	cfg := m.cfg
	nBins := cfg.FFTSize/2 + 1
	frameGrads := make([][]float64, len(grad))
	buf := make([]complex128, cfg.FFTSize)
	dLogMel := make([]float64, cfg.NumFilters)
	for f, g := range grad {
		if len(g) != cfg.NumCoeffs {
			return nil, fmt.Errorf("dsp: frame %d gradient has %d coeffs, want %d", f, len(g), cfg.NumCoeffs)
		}
		// DCT-II adjoint: d log-mel.
		m.dct.TransposeInto(g, dLogMel)
		// log adjoint: d mel.
		dMel := make([]float64, cfg.NumFilters)
		for i := range dMel {
			dMel[i] = dLogMel[i] / st.melPlus[f][i]
		}
		// Filterbank adjoint: d power spectrum.
		dPower, err := m.bank.ApplyTranspose(dMel)
		if err != nil {
			return nil, err
		}
		// Power-spectrum adjoint via FFT: dL/dy_n = 2 Re(Σ_k G_k e^{-i2πkn/N})
		// with G_k = dPower_k * conj(X_k) for the nonredundant bins.
		for i := range buf {
			buf[i] = 0
		}
		spec := st.spectra[f]
		for k := 0; k < nBins; k++ {
			buf[k] = complex(dPower[k], 0) * cmplxConj(spec[k])
		}
		if err := FFT(buf); err != nil {
			return nil, err
		}
		fg := make([]float64, cfg.FrameLen)
		for n := 0; n < cfg.FrameLen; n++ {
			fg[n] = 2 * real(buf[n]) * m.window[n]
		}
		frameGrads[f] = fg
	}
	// Frame adjoint: overlap-add back onto the (pre-emphasized) signal.
	dPre := OverlapAdd(frameGrads, st.inputLen, cfg.Hop)
	if cfg.PreEmph != 0 {
		return PreEmphasisBackward(dPre, cfg.PreEmph), nil
	}
	return dPre, nil
}

func cmplxConj(c complex128) complex128 {
	return complex(real(c), -imag(c))
}

// Deltas computes first-order regression deltas over a feature matrix with
// the standard +/-width window. The rows share one backing array.
func Deltas(feats [][]float64, width int) [][]float64 {
	n := len(feats)
	out := make([][]float64, n)
	if n == 0 {
		return out
	}
	dim := len(feats[0])
	rows := make([]float64, n*dim)
	for t := range out {
		out[t] = rows[t*dim : (t+1)*dim : (t+1)*dim]
		DeltaInto(feats, t, n, width, out[t])
	}
	return out
}

// DeltaInto writes frame t's regression delta into dst (as wide as a
// feature row), with neighbour indices clamped to [0, n): n is the number
// of frames that exist so far, which lets a streaming consumer compute
// the same provisional edge values a batch pass over feats[:n] would.
func DeltaInto(feats [][]float64, t, n, width int, dst []float64) {
	if width <= 0 {
		width = 2
	}
	var denom float64
	for w := 1; w <= width; w++ {
		denom += 2 * float64(w*w)
	}
	clear(dst)
	for w := 1; w <= width; w++ {
		fw := float64(w)
		plus, minus := feats[min(t+w, n-1)], feats[max(t-w, 0)]
		for j := range dst {
			dst[j] += fw * (plus[j] - minus[j])
		}
	}
	for j := range dst {
		dst[j] /= denom
	}
}

// StackContext concatenates each frame with +/-context neighbouring frames
// (edge frames are clamped), producing (2*context+1)*dim vectors.
func StackContext(feats [][]float64, context int) [][]float64 {
	n := len(feats)
	if n == 0 {
		return nil
	}
	dim := len(feats[0])
	out := make([][]float64, n)
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	for t := 0; t < n; t++ {
		v := make([]float64, 0, (2*context+1)*dim)
		for c := -context; c <= context; c++ {
			v = append(v, feats[clamp(t+c)]...)
		}
		out[t] = v
	}
	return out
}

// StackFrame writes the context-stacked vector of frame t (as StackContext
// would produce) into dst, which must have length (2*context+1)*dim where
// dim = len(feats[t]). It lets per-frame consumers reuse one buffer
// instead of materializing the whole stacked matrix.
func StackFrame(feats [][]float64, t, context int, dst []float64) {
	n := len(feats)
	pos := 0
	for c := -context; c <= context; c++ {
		i := t + c
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		pos += copy(dst[pos:], feats[i])
	}
}

// StackContextBackward maps a gradient over stacked vectors back to a
// gradient over the original frames (the adjoint of StackContext).
func StackContextBackward(grad [][]float64, context, dim int) [][]float64 {
	n := len(grad)
	out := make([][]float64, n)
	for t := range out {
		out[t] = make([]float64, dim)
	}
	clamp := func(i int) int {
		if i < 0 {
			return 0
		}
		if i >= n {
			return n - 1
		}
		return i
	}
	for t := 0; t < n; t++ {
		for c := -context; c <= context; c++ {
			src := grad[t][(c+context)*dim : (c+context+1)*dim]
			dst := out[clamp(t+c)]
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	return out
}
