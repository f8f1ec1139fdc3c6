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
// with one direction's per-stage twiddles.
func (p *fftPlan) transform(x []complex128, stages [][]complex128) {
	x = x[:p.n]
	for i, rev := range p.bitrev {
		if j := int(rev); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	butterflies(x, stages)
}

// butterflies runs the radix-2 stages over bit-reversed x, two per pass: a
// block of 4H elements takes k, k+H, k+2H, k+3H through the two butterflies
// of the half-size-H stage and then the two of the 2H stage — the same
// butterflies on the same operands in the same order as separate sweeps,
// so every value sees the identical sequence of roundings (fused loops,
// not radix-4 algebra). An odd stage count runs the first stage alone.
//
// A butterfly with the unit twiddle w^0 = 1∓0i skips the multiplication:
// b·(1∓0i) equals b except possibly in the sign of a zero component, and a
// zero's sign never changes a nonzero value downstream (only sums and
// products follow) and squares away in the power spectrum. No other
// twiddle is exact in floating point — w^(n/4) is 6.1e-17∓i, not ∓i — so
// every other product is kept.
func butterflies(x []complex128, stages [][]complex128) {
	if len(stages)%2 == 1 {
		// Half-size 1: every twiddle is w^0.
		for i := 0; i+1 < len(x); i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		stages = stages[1:]
	}
	for ; len(stages) >= 2; stages = stages[2:] {
		t1 := stages[0]
		h := len(t1)
		t2lo, t2hi := stages[1][:h], stages[1][h:][:h]
		for start := 0; start+4*h <= len(x); start += 4 * h {
			q0 := x[start:][:h]
			q1 := x[start+h:][:h]
			q2 := x[start+2*h:][:h]
			q3 := x[start+3*h:][:h]
			// k = 0: w^0 in both butterflies of the first stage and in the
			// second stage's first.
			y0, y1 := q0[0]+q1[0], q0[0]-q1[0]
			y2, y3 := q2[0]+q3[0], q2[0]-q3[0]
			c3 := y3 * t2hi[0]
			q0[0], q2[0] = y0+y2, y0-y2
			q1[0], q3[0] = y1+c3, y1-c3
			for k := 1; k < h; k++ {
				w := t1[k]
				b0 := q1[k] * w
				b2 := q3[k] * w
				y0, y1 := q0[k]+b0, q0[k]-b0
				y2, y3 := q2[k]+b2, q2[k]-b2
				c2 := y2 * t2lo[k]
				c3 := y3 * t2hi[k]
				q0[k], q2[k] = y0+c2, y0-c2
				q1[k], q3[k] = y1+c3, y1-c3
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
	ones, _ := Window(WindowRect, n) // cannot fail: the kind is known and n >= 2
	newRealPlan(n).power(x, ones, buf, power)
	return nil
}

// realPlan is the frame kernel's tables for one FFT size n: the half-size
// complex plan's bit reversal and forward stages, and the size-n forward
// twiddles of the untangle step. The MFCC extractors hold one for their
// FFT size, so the per-frame path does no plan-cache lookups.
type realPlan struct {
	rev    []int32        // getPlan(n/2).bitrev
	stages [][]complex128 // getPlan(n/2).fwdStages (none when n == 2)
	tw     []complex128   // getPlan(n).fwd
}

// newRealPlan returns the plan for a power-of-two n >= 2.
func newRealPlan(n int) realPlan {
	half := getPlan(n / 2)
	return realPlan{rev: half.bitrev, stages: half.fwdStages, tw: getPlan(n).fwd}
}

// power is the one frame kernel of the inference front end: the power
// spectrum (n/2+1 bins) of x·window zero-padded to n samples, where
// len(x) <= len(window) <= n, cap(buf) >= n/2 and len(power) >= n/2+1.
func (rp realPlan) power(x, window []float64, buf []complex128, power []float64) {
	h := len(rp.rev)
	buf = buf[:h]
	window = window[:len(x)]
	// Window, pack z_j = y_{2j} + i·y_{2j+1} and store z_j at its
	// bit-reversed index in one pass: bit reversal is an involution, so
	// this is the permutation the transform's swap pass applies.
	pairs := len(x) / 2
	for j, r := range rp.rev[:pairs] {
		buf[r] = complex(x[2*j]*window[2*j], x[2*j+1]*window[2*j+1])
	}
	rest := rp.rev[pairs:]
	if len(x)&1 == 1 {
		buf[rest[0]] = complex(x[len(x)-1]*window[len(x)-1], 0)
		rest = rest[1:]
	}
	for _, r := range rest {
		buf[r] = 0
	}
	butterflies(buf, rp.stages)
	// Untangle: with Z the H-point FFT of z, the even/odd spectra are
	// E_k = (Z_k + conj(Z_{H-k}))/2 and O_k = -i(Z_k - conj(Z_{H-k}))/2, and
	// X_k = E_k + W_n^k·O_k, spelled out in real arithmetic. DC and Nyquist
	// collapse to sums of Z_0's parts. Bin H-k reads the same two Z values
	// as bin k with the roles swapped, so its er, or are bin k's (a+c ==
	// c+a) and its ei, oi bin k's exactly negated (d-b == -(b-d); scaling
	// by ±0.5 commutes with negation): both are finished per iteration,
	// the middle bin alone.
	re0, im0 := real(buf[0]), imag(buf[0])
	dc := re0 + im0
	ny := re0 - im0
	power[0] = dc * dc
	power[h] = ny * ny
	tw := rp.tw[:h]
	power = power[:h]
	for k, m := 1, h-1; k <= m; k, m = k+1, m-1 {
		a, b := real(buf[k]), imag(buf[k])
		c, d := real(buf[m]), imag(buf[m])
		er, ei := 0.5*(a+c), 0.5*(b-d)
		or, oi := 0.5*(b+d), -0.5*(a-c)
		tr, ti := real(tw[k]), imag(tw[k])
		xr := er + tr*or - ti*oi
		xi := ei + tr*oi + ti*or
		power[k] = xr*xr + xi*xi
		if k == m {
			break
		}
		ei, oi = -ei, -oi
		tr, ti = real(tw[m]), imag(tw[m])
		xr = er + tr*or - ti*oi
		xi = ei + tr*oi + ti*or
		power[m] = xr*xr + xi*xi
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
