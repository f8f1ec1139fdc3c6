package dsp

import (
	"fmt"
	"math"
	"slices"
)

// HzToMel converts a frequency in Hz to the mel scale.
func HzToMel(hz float64) float64 {
	return 2595 * math.Log10(1+hz/700)
}

// MelToHz converts a mel-scale value back to Hz.
func MelToHz(mel float64) float64 {
	return 700 * (math.Pow(10, mel/2595) - 1)
}

// MelBank is a triangular mel filterbank mapping a power spectrum with
// nBins bins to nFilters mel energies. Weights[f][k] is the contribution of
// spectrum bin k to filter f.
type MelBank struct {
	NumFilters int
	NumBins    int
	Weights    [][]float64

	// Sparse view of Weights, built by NewMelBank: each filter's triangle
	// touches only a contiguous run of bins, so Apply iterates
	// starts[f]..starts[f]+len(sparse[f]) instead of scanning all NumBins.
	// zeroFree marks the runs without an interior zero (every trimmed
	// triangle); any other run keeps the dense scan's skip of exact zeros,
	// since 0·Inf would turn a sum into NaN.
	starts   []int
	sparse   [][]float64
	zeroFree []bool
}

// NewMelBank constructs a triangular mel filterbank. fftSize is the FFT
// length (the spectrum has fftSize/2+1 bins); lowHz/highHz bound the band.
func NewMelBank(numFilters, fftSize int, sampleRate, lowHz, highHz float64) (*MelBank, error) {
	if numFilters <= 0 {
		return nil, fmt.Errorf("dsp: numFilters %d must be positive", numFilters)
	}
	if highHz <= lowHz {
		return nil, fmt.Errorf("dsp: mel band [%g,%g) is empty", lowHz, highHz)
	}
	if highHz > sampleRate/2 {
		highHz = sampleRate / 2
	}
	nBins := fftSize/2 + 1
	lowMel, highMel := HzToMel(lowHz), HzToMel(highHz)
	// numFilters+2 equally spaced mel points define the triangle corners.
	points := make([]float64, numFilters+2)
	for i := range points {
		mel := lowMel + (highMel-lowMel)*float64(i)/float64(numFilters+1)
		points[i] = MelToHz(mel) * float64(fftSize) / sampleRate
	}
	weights := make([][]float64, numFilters)
	for f := 0; f < numFilters; f++ {
		w := make([]float64, nBins)
		left, center, right := points[f], points[f+1], points[f+2]
		for k := 0; k < nBins; k++ {
			fk := float64(k)
			switch {
			case fk > left && fk < center:
				w[k] = (fk - left) / (center - left)
			case fk >= center && fk < right:
				w[k] = (right - fk) / (right - center)
			}
		}
		weights[f] = w
	}
	bank := &MelBank{NumFilters: numFilters, NumBins: nBins, Weights: weights}
	bank.buildSparse()
	return bank, nil
}

// buildSparse trims each filter to its nonzero bin run.
func (m *MelBank) buildSparse() {
	m.starts = make([]int, m.NumFilters)
	m.sparse = make([][]float64, m.NumFilters)
	m.zeroFree = make([]bool, m.NumFilters)
	for f, w := range m.Weights {
		lo, hi := 0, len(w)
		for lo < hi && w[lo] == 0 {
			lo++
		}
		for hi > lo && w[hi-1] == 0 {
			hi--
		}
		m.starts[f] = lo
		m.sparse[f] = w[lo:hi]
		m.zeroFree[f] = !slices.Contains(w[lo:hi], 0)
	}
}

// Apply maps a power spectrum to mel filterbank energies.
func (m *MelBank) Apply(power []float64) ([]float64, error) {
	return m.ApplyInto(power, nil)
}

// ApplyInto is Apply with a caller-provided output buffer: if cap(out) >=
// NumFilters the call is allocation-free and the result aliases out.
func (m *MelBank) ApplyInto(power, out []float64) ([]float64, error) {
	if len(power) != m.NumBins {
		return nil, fmt.Errorf("dsp: spectrum has %d bins, filterbank expects %d", len(power), m.NumBins)
	}
	if len(m.sparse) != m.NumFilters {
		return nil, fmt.Errorf("dsp: filterbank was not built by NewMelBank")
	}
	if cap(out) < m.NumFilters {
		out = make([]float64, m.NumFilters)
	}
	out = out[:m.NumFilters]
	m.apply(power, out)
	return out, nil
}

// apply is ApplyInto for a constructor-built bank and buffers known to
// fit: len(power) == NumBins, len(out) == NumFilters.
func (m *MelBank) apply(power, out []float64) {
	for f, w := range m.sparse {
		base := power[m.starts[f]:][:len(w)]
		var s float64
		if m.zeroFree[f] {
			for k, wk := range w {
				s += wk * base[k]
			}
		} else {
			for k, wk := range w {
				if wk != 0 {
					s += wk * base[k]
				}
			}
		}
		out[f] = s
	}
}

// ApplyTranspose maps a gradient over mel energies back to a gradient over
// power-spectrum bins (the adjoint of Apply).
func (m *MelBank) ApplyTranspose(grad []float64) ([]float64, error) {
	if len(grad) != m.NumFilters {
		return nil, fmt.Errorf("dsp: gradient has %d filters, filterbank expects %d", len(grad), m.NumFilters)
	}
	if len(m.sparse) != m.NumFilters {
		return nil, fmt.Errorf("dsp: filterbank was not built by NewMelBank")
	}
	out := make([]float64, m.NumBins)
	for f, w := range m.sparse {
		g := grad[f]
		if g == 0 {
			continue
		}
		dst := out[m.starts[f]:]
		for k, wk := range w {
			if wk != 0 {
				dst[k] += wk * g
			}
		}
	}
	return out, nil
}

// DCT2 computes the orthonormal DCT-II of x, returning the first numCoeffs
// coefficients.
func DCT2(x []float64, numCoeffs int) []float64 {
	n := len(x)
	if numCoeffs > n {
		numCoeffs = n
	}
	out := make([]float64, numCoeffs)
	NewDCT2Plan(n, numCoeffs).Into(x, out)
	return out
}

// DCT2Plan precomputes the cosine basis of an n-point DCT-II truncated to
// numCoeffs coefficients, so the per-frame transform does no trig calls.
// The basis rows hold the raw cosines (scaling is applied after the dot
// product), which keeps results bit-identical to the direct formula.
type DCT2Plan struct {
	n         int
	numCoeffs int
	cos       []float64 // cos[k*n+i] = cos(pi*k*(i+0.5)/n)
	scale0    float64
	scale     float64
}

// NewDCT2Plan builds the table for an n-point DCT-II keeping numCoeffs
// coefficients (clamped to n).
func NewDCT2Plan(n, numCoeffs int) *DCT2Plan {
	if numCoeffs > n {
		numCoeffs = n
	}
	p := &DCT2Plan{
		n:         n,
		numCoeffs: numCoeffs,
		cos:       make([]float64, numCoeffs*n),
		scale0:    math.Sqrt(1 / float64(n)),
		scale:     math.Sqrt(2 / float64(n)),
	}
	for k := 0; k < numCoeffs; k++ {
		row := p.cos[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			row[i] = math.Cos(math.Pi * float64(k) * (float64(i) + 0.5) / float64(n))
		}
	}
	return p
}

// NumCoeffs returns the number of coefficients the plan produces.
func (p *DCT2Plan) NumCoeffs() int { return p.numCoeffs }

// Into writes the first NumCoeffs DCT-II coefficients of x (len n) into
// dst, which must have length >= NumCoeffs.
func (p *DCT2Plan) Into(x, dst []float64) {
	for k := 0; k < p.numCoeffs; k++ {
		row := p.cos[k*p.n : (k+1)*p.n]
		var s float64
		for i, v := range x {
			s += v * row[i]
		}
		if k == 0 {
			dst[k] = s * p.scale0
		} else {
			dst[k] = s * p.scale
		}
	}
}

// DCT2Transpose computes the adjoint of DCT2: given dL/dy for the first
// len(grad) coefficients of an n-point DCT-II (at most n), it returns
// dL/dx.
func DCT2Transpose(grad []float64, n int) []float64 {
	out := make([]float64, n)
	NewDCT2Plan(n, len(grad)).TransposeInto(grad, out)
	return out
}

// TransposeInto writes the adjoint of Into into dst (len n): given dL/dy
// for the first len(grad) <= NumCoeffs coefficients, dL/dx. It reads the
// plan's cosine table, so it is bit-identical to the direct formula and
// makes no trig call.
func (p *DCT2Plan) TransposeInto(grad, dst []float64) {
	clear(dst[:p.n])
	for k, g := range grad[:min(len(grad), p.numCoeffs)] {
		if g == 0 {
			continue
		}
		sc := p.scale
		if k == 0 {
			sc = p.scale0
		}
		row := p.cos[k*p.n : (k+1)*p.n]
		for i, c := range row {
			dst[i] += g * sc * c
		}
	}
}
