// Package dsp implements the signal-processing substrate used by every ASR
// engine in this repository: FFT, windowing, framing, mel filterbanks,
// DCT-II, MFCC feature extraction, delta features, and — critically for the
// white-box attack — an analytic backward pass that propagates gradients
// from MFCC features back to raw waveform samples.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// fftPlan holds the precomputed tables for one transform size: the
// bit-reversal permutation and the forward/inverse twiddle factors
// w_n^k = exp(∓i·2πk/n) for k < n/2. Each twiddle is evaluated directly
// with cmplx.Exp instead of the classic w *= wStep recurrence, which
// accumulates one rounding error per butterfly and visibly degrades long
// transforms. A stage of size s uses every (n/s)-th table entry; the
// per-stage slices hold exactly those entries in butterfly order, so the
// butterfly loop indexes three equally long slices and carries no bounds
// checks.
type fftPlan struct {
	n         int
	bitrev    []int32
	fwd       []complex128   // forward table; RealPowerInto's untangle reads it whole
	fwdStages [][]complex128 // stage log2(size)-1: fwd[k*n/size], k < size/2
	invStages [][]complex128
}

// planCache maps transform size -> *fftPlan. Plans are immutable after
// construction, so concurrent FFTs share them freely.
var planCache sync.Map

// getPlan returns the (possibly cached) plan for a power-of-two n >= 2.
func getPlan(n int) *fftPlan {
	if p, ok := planCache.Load(n); ok {
		return p.(*fftPlan)
	}
	p := &fftPlan{n: n}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	p.bitrev = make([]int32, n)
	for i := 0; i < n; i++ {
		p.bitrev[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	half := n / 2
	p.fwd = make([]complex128, half)
	inv := make([]complex128, half)
	for k := 0; k < half; k++ {
		angle := 2 * math.Pi * float64(k) / float64(n)
		p.fwd[k] = cmplx.Exp(complex(0, -angle))
		inv[k] = cmplx.Exp(complex(0, angle))
	}
	for size := 2; size <= n; size <<= 1 {
		stride := n / size
		f := make([]complex128, size/2)
		v := make([]complex128, size/2)
		for k := range f {
			f[k], v[k] = p.fwd[k*stride], inv[k*stride]
		}
		p.fwdStages = append(p.fwdStages, f)
		p.invStages = append(p.invStages, v)
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*fftPlan)
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two.
func FFT(x []complex128) error {
	return fftDir(x, false)
}

// IFFT computes the inverse FFT of x in place, including the 1/N
// normalization. len(x) must be a power of two.
func IFFT(x []complex128) error {
	if err := fftDir(x, true); err != nil {
		return err
	}
	n := complex(float64(len(x)), 0)
	for i := range x {
		x[i] /= n
	}
	return nil
}

func fftDir(x []complex128, inverse bool) error {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 {
		return fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	if n == 1 {
		return nil
	}
	plan := getPlan(n)
	if inverse {
		plan.transform(x, plan.invStages)
	} else {
		plan.transform(x, plan.fwdStages)
	}
	return nil
}

// transform runs the bit-reversal and the butterflies over x (len p.n)
// with one direction's per-stage twiddles. The first butterfly of every
// block has the unit twiddle w^0 = 1∓0i and skips the multiplication:
// b·(1∓0i) equals b except possibly in the sign of a zero component, and a
// zero's sign never changes a nonzero value downstream (only sums and
// products follow) and squares away in the power spectrum. No other
// twiddle is exact in floating point — w^(n/4) is 6.1e-17∓i, not ∓i — so
// every other product is kept.
func (p *fftPlan) transform(x []complex128, stages [][]complex128) {
	x = x[:p.n]
	for i, rev := range p.bitrev {
		if j := int(rev); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for _, tw := range stages {
		half := len(tw)
		for start := 0; start+2*half <= len(x); start += 2 * half {
			lo := x[start:][:half]
			hi := x[start+half:][:half]
			a, b := lo[0], hi[0]
			lo[0], hi[0] = a+b, a-b
			for k := 1; k < len(lo); k++ {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// RFFT computes the FFT of a real signal and returns the first n/2+1
// complex bins (the remainder is conjugate-symmetric). len(x) must be a
// power of two.
func RFFT(x []float64) ([]complex128, error) {
	return RFFTInto(x, nil)
}

// RFFTInto is RFFT with a caller-provided scratch buffer: if cap(buf) >=
// len(x) the transform runs allocation-free and the returned slice aliases
// buf. A nil or short buf falls back to a fresh allocation.
func RFFTInto(x []float64, buf []complex128) ([]complex128, error) {
	n := len(x)
	if cap(buf) < n {
		buf = make([]complex128, n)
	}
	buf = buf[:n]
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	if err := FFT(buf); err != nil {
		return nil, err
	}
	return buf[:n/2+1], nil
}

// PowerSpectrum returns |X_k|^2 for the n/2+1 nonredundant bins of the real
// signal x.
func PowerSpectrum(x []float64) ([]float64, error) {
	return PowerSpectrumInto(x, nil, nil)
}

// PowerSpectrumInto is PowerSpectrum with caller-provided scratch: spec
// must have cap >= len(x) and out cap >= len(x)/2+1 for an allocation-free
// call; short or nil buffers are replaced by fresh ones.
func PowerSpectrumInto(x []float64, spec []complex128, out []float64) ([]float64, error) {
	bins, err := RFFTInto(x, spec)
	if err != nil {
		return nil, err
	}
	if cap(out) < len(bins) {
		out = make([]float64, len(bins))
	}
	out = out[:len(bins)]
	for i, c := range bins {
		re, im := real(c), imag(c)
		out[i] = re*re + im*im
	}
	return out, nil
}

// RealPowerInto computes the power spectrum |X_k|^2 for the n/2+1
// nonredundant bins of the real signal x (len(x) a power of two >= 2)
// into power, using buf (cap >= n/2) as workspace. It runs a half-size
// complex FFT over even/odd-packed samples and untangles the result —
// about half the butterfly work of the full transform RFFT does, which is
// what makes it the front-end kernel of the serving path: MFCC extraction
// only ever consumes the power spectrum, never the full complex bins.
func RealPowerInto(x []float64, buf []complex128, power []float64) error {
	n := len(x)
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("dsp: real FFT length %d is not a power of two >= 2", n)
	}
	h := n / 2
	if cap(buf) < h {
		return fmt.Errorf("dsp: real FFT workspace cap %d < %d", cap(buf), h)
	}
	if len(power) < h+1 {
		return fmt.Errorf("dsp: power buffer len %d < %d", len(power), h+1)
	}
	newRealPlan(n).power(x, buf, power)
	return nil
}

// realPlan is what RealPowerInto needs for one frame size n: the
// half-size complex plan and the size-n forward twiddles of the untangle
// step. The MFCC extractors hold one for their FFT size, so the per-frame
// path does no plan-cache lookups.
type realPlan struct {
	half *fftPlan     // nil when n == 2: a one-point transform is the identity
	tw   []complex128 // getPlan(n).fwd
}

// newRealPlan returns the plan for a power-of-two n >= 2.
func newRealPlan(n int) realPlan {
	rp := realPlan{tw: getPlan(n).fwd}
	if n >= 4 {
		rp.half = getPlan(n / 2)
	}
	return rp
}

// power is RealPowerInto for buffers already known to fit: len(x) == n,
// cap(buf) >= n/2, len(power) >= n/2+1.
func (rp realPlan) power(x []float64, buf []complex128, power []float64) {
	h := len(x) / 2
	buf = buf[:h]
	for j := range buf {
		buf[j] = complex(x[2*j], x[2*j+1])
	}
	if rp.half != nil {
		rp.half.transform(buf, rp.half.fwdStages)
	}
	// Untangle: with z_j = x_{2j} + i·x_{2j+1} and Z its H-point FFT, the
	// even/odd spectra are E_k = (Z_k + conj(Z_{H-k}))/2 and
	// O_k = -i(Z_k - conj(Z_{H-k}))/2, and X_k = E_k + W_n^k·O_k. The DC
	// and Nyquist bins collapse to sums of Z_0's parts. The loop is spelled
	// out in real arithmetic: the complex128 form costs roughly as much as
	// the half-size FFT it follows.
	re0, im0 := real(buf[0]), imag(buf[0])
	dc := re0 + im0
	ny := re0 - im0
	power[0] = dc * dc
	power[h] = ny * ny
	tw := rp.tw
	for k := 1; k < h; k++ {
		a, b := real(buf[k]), imag(buf[k])
		c, d := real(buf[h-k]), imag(buf[h-k])
		er, ei := 0.5*(a+c), 0.5*(b-d)
		or, oi := 0.5*(b+d), -0.5*(a-c)
		tr, ti := real(tw[k]), imag(tw[k])
		xr := er + tr*or - ti*oi
		xi := ei + tr*oi + ti*or
		power[k] = xr*xr + xi*xi
	}
}

// NextPow2 returns the smallest power of two >= n (and at least 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
