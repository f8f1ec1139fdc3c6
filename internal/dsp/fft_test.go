package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := make([]complex128, n)
		copy(got, x)
		if err := FFT(got); err != nil {
			t.Fatalf("FFT(n=%d): %v", n, err)
		}
		for k := range got {
			if cmplx.Abs(got[k]-want[k]) > 1e-8 {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	x := make([]complex128, 12)
	if err := FFT(x); err == nil {
		t.Fatal("expected error for length 12")
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]complex128, 128)
	orig := make([]complex128, 128)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		orig[i] = x[i]
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	if err := IFFT(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
			t.Fatalf("sample %d: got %v want %v", i, x[i], orig[i])
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 256)
	var timeEnergy float64
	for i := range x {
		x[i] = rng.NormFloat64()
		timeEnergy += x[i] * x[i]
	}
	power, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	// Sum over the full spectrum: duplicate interior bins of the half
	// spectrum (conjugate symmetry) and divide by N.
	var freqEnergy float64
	for k, p := range power {
		if k == 0 || k == len(power)-1 {
			freqEnergy += p
		} else {
			freqEnergy += 2 * p
		}
	}
	freqEnergy /= float64(len(x))
	if math.Abs(freqEnergy-timeEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: time %g freq %g", timeEnergy, freqEnergy)
	}
}

func TestRFFTConjugateSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, 64)
		re := make([]float64, 64)
		for i := range x {
			re[i] = rng.NormFloat64()
			x[i] = complex(re[i], 0)
		}
		if err := FFT(x); err != nil {
			return false
		}
		for k := 1; k < 32; k++ {
			if cmplx.Abs(x[k]-cmplxConj(x[64-k])) > 1e-8 {
				return false
			}
		}
		half, err := RFFT(re)
		if err != nil || len(half) != 33 {
			return false
		}
		for k := range half {
			if cmplx.Abs(half[k]-x[k]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFFTAccuracyLongTransform pins the accuracy of the precomputed
// twiddle tables on a long transform. The previous implementation advanced
// the twiddle factor by a running product (w *= wStep), accumulating
// rounding error proportional to the transform length; per-entry
// cmplx.Exp tables keep every butterfly's twiddle exact to the ulp, so a
// 4096-point transform stays within a tight bound of the O(n^2) reference.
func TestFFTAccuracyLongTransform(t *testing.T) {
	const n = 4096
	rng := rand.New(rand.NewSource(9))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want := naiveDFT(x)
	got := make([]complex128, n)
	copy(got, x)
	if err := FFT(got); err != nil {
		t.Fatal(err)
	}
	// Scale-aware bound: compare the worst bin error against the RMS
	// magnitude of the spectrum.
	var rms float64
	for _, c := range want {
		rms += real(c)*real(c) + imag(c)*imag(c)
	}
	rms = math.Sqrt(rms / n)
	var worst float64
	for k := range got {
		if e := cmplx.Abs(got[k] - want[k]); e > worst {
			worst = e
		}
	}
	if worst > 1e-9*rms {
		t.Fatalf("4096-point FFT worst-bin error %g exceeds 1e-9 of spectrum RMS %g", worst, rms)
	}
}

// TestRFFTIntoReusesBuffers asserts the scratch variants are
// allocation-free once the buffers exist and agree bit-for-bit with the
// allocating API.
func TestRFFTIntoReusesBuffers(t *testing.T) {
	x := make([]float64, 512)
	for i := range x {
		x[i] = math.Sin(0.03 * float64(i))
	}
	spec, err := RFFT(x)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, 512)
	specInto, err := RFFTInto(x, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(specInto) != len(spec) {
		t.Fatalf("length %d != %d", len(specInto), len(spec))
	}
	for k := range spec {
		if spec[k] != specInto[k] {
			t.Fatalf("bin %d: %v != %v", k, spec[k], specInto[k])
		}
	}
	power, err := PowerSpectrum(x)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(power))
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := RFFTInto(x, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := PowerSpectrumInto(x, buf, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scratch path allocates %v times per run", allocs)
	}
	for k := range power {
		if power[k] != out[k] {
			t.Fatalf("power bin %d: %v != %v", k, power[k], out[k])
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 255: 256, 256: 256, 257: 512}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func BenchmarkFFT256(b *testing.B) {
	x := make([]complex128, 256)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)), 0)
	}
	buf := make([]complex128, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		if err := FFT(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRealPowerInto checks the packed half-size real FFT against the
// full complex transform on random signals across sizes.
func TestRealPowerInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{2, 4, 8, 64, 256, 512} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want, err := PowerSpectrum(x)
		if err != nil {
			t.Fatalf("n=%d PowerSpectrum: %v", n, err)
		}
		got := make([]float64, n/2+1)
		if err := RealPowerInto(x, make([]complex128, n/2), got); err != nil {
			t.Fatalf("n=%d RealPowerInto: %v", n, err)
		}
		for k := range want {
			diff := math.Abs(got[k] - want[k])
			scale := math.Abs(want[k]) + 1
			if diff/scale > 1e-10 {
				t.Errorf("n=%d bin %d: got %g want %g", n, k, got[k], want[k])
			}
		}
	}
	if err := RealPowerInto(make([]float64, 3), make([]complex128, 2), make([]float64, 3)); err == nil {
		t.Error("non-power-of-two length not rejected")
	}
	if err := RealPowerInto(make([]float64, 8), make([]complex128, 2), make([]float64, 5)); err == nil {
		t.Error("short workspace not rejected")
	}
	if err := RealPowerInto(make([]float64, 8), make([]complex128, 4), make([]float64, 3)); err == nil {
		t.Error("short power buffer not rejected")
	}
}

// refFFT and refRealPower are frozen copies of the transform as it ran
// before the per-stage twiddle tables and the unit-twiddle shortcut: one
// shared table read with a stride, every butterfly multiplied. The
// current code must agree with them under == (which, like the power
// spectrum, does not see the sign of a zero).
func refFFT(x []complex128, inverse bool) {
	n := len(x)
	if n < 2 {
		return
	}
	plan := getPlan(n)
	for i, rev := range plan.bitrev {
		if j := int(rev); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := 2 * math.Pi * float64(k) / float64(n)
		if inverse {
			tw[k] = cmplx.Exp(complex(0, angle))
		} else {
			tw[k] = cmplx.Exp(complex(0, -angle))
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		stride := n / size
		for start := 0; start < n; start += size {
			ti := 0
			for k := start; k < start+half; k++ {
				a := x[k]
				b := x[k+half] * tw[ti]
				x[k] = a + b
				x[k+half] = a - b
				ti += stride
			}
		}
	}
}

func refRealPower(x []float64, power []float64) {
	n := len(x)
	h := n / 2
	buf := make([]complex128, h)
	for j := 0; j < h; j++ {
		buf[j] = complex(x[2*j], x[2*j+1])
	}
	refFFT(buf, false)
	re0, im0 := real(buf[0]), imag(buf[0])
	dc := re0 + im0
	ny := re0 - im0
	power[0] = dc * dc
	power[h] = ny * ny
	for k := 1; k < h; k++ {
		angle := 2 * math.Pi * float64(k) / float64(n)
		w := cmplx.Exp(complex(0, -angle))
		a, b := real(buf[k]), imag(buf[k])
		c, d := real(buf[h-k]), imag(buf[h-k])
		er, ei := 0.5*(a+c), 0.5*(b-d)
		or, oi := 0.5*(b+d), -0.5*(a-c)
		tr, ti := real(w), imag(w)
		xr := er + tr*or - ti*oi
		xi := ei + tr*oi + ti*or
		power[k] = xr*xr + xi*xi
	}
}

func TestFFTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 4, 8, 16, 128, 256, 1024} {
		for trial := 0; trial < 8; trial++ {
			x := make([]complex128, n)
			for i := range x {
				x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			if trial%2 == 1 { // a real, zero-padded frame like the MFCC path's
				for i := range x {
					x[i] = complex(real(x[i]), 0)
					if i > n/2 {
						x[i] = 0
					}
				}
			}
			for _, inverse := range []bool{false, true} {
				got := append([]complex128(nil), x...)
				want := append([]complex128(nil), x...)
				if err := fftDir(got, inverse); err != nil {
					t.Fatal(err)
				}
				refFFT(want, inverse)
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("n=%d inverse=%v bin %d: %v, reference %v", n, inverse, k, got[k], want[k])
					}
				}
			}
		}
	}
}

func TestRealPowerIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{2, 4, 8, 64, 256, 512} {
		plan := newRealPlan(n)
		rect, _ := Window(WindowRect, n)
		for trial := 0; trial < 16; trial++ {
			x := make([]float64, n)
			for i := range x[:n-rng.Intn(n/2+1)] { // zero-padded tail, as in the last frames of a clip
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
			}
			want := make([]float64, n/2+1)
			refRealPower(x, want)
			got := make([]float64, n/2+1)
			if err := RealPowerInto(x, make([]complex128, n/2), got); err != nil {
				t.Fatal(err)
			}
			held := make([]float64, n/2+1)
			plan.power(x, rect, make([]complex128, n/2), held)
			for k := range want {
				if got[k] != want[k] || held[k] != want[k] {
					t.Fatalf("n=%d bin %d: RealPowerInto %v, held plan %v, reference %v", n, k, got[k], held[k], want[k])
				}
			}
		}
	}
}
