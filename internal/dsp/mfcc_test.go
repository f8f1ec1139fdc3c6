package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() MFCCConfig {
	return MFCCConfig{
		SampleRate: 8000,
		FrameLen:   256,
		Hop:        128,
		NumFilters: 20,
		NumCoeffs:  13,
		PreEmph:    0.97,
		Window:     WindowHamming,
		LowHz:      80,
	}
}

func TestWindowShapes(t *testing.T) {
	for _, kind := range []WindowKind{WindowHamming, WindowHann, WindowRect} {
		w, err := Window(kind, 64)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		for i, v := range w {
			if v < 0 || v > 1.0001 {
				t.Fatalf("%v coefficient %d = %g out of [0,1]", kind, i, v)
			}
		}
	}
	if _, err := Window(WindowHamming, 0); err == nil {
		t.Fatal("expected error for zero-length window")
	}
	if _, err := Window(WindowKind(99), 8); err == nil {
		t.Fatal("expected error for unknown window kind")
	}
}

func TestPreEmphasisRoundTripGradient(t *testing.T) {
	// <grad, PreEmphasis(x)> must equal <PreEmphasisBackward(grad), x>
	// for the adjoint to be correct.
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 50)
	g := make([]float64, 50)
	for i := range x {
		x[i] = rng.NormFloat64()
		g[i] = rng.NormFloat64()
	}
	y := PreEmphasis(x, 0.95)
	gx := PreEmphasisBackward(g, 0.95)
	var lhs, rhs float64
	for i := range x {
		lhs += g[i] * y[i]
		rhs += gx[i] * x[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %g vs %g", lhs, rhs)
	}
}

func TestFrameCountsAndPadding(t *testing.T) {
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 1
	}
	frames, err := Frame(x, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	want := NumFrames(1000, 256, 128)
	if len(frames) != want {
		t.Fatalf("got %d frames, want %d", len(frames), want)
	}
	last := frames[len(frames)-1]
	// The final frame extends past the signal and must be zero-padded.
	if last[len(last)-1] != 0 {
		t.Fatal("expected zero padding at the tail")
	}
	if frames[0][0] != 1 {
		t.Fatal("first frame should carry signal")
	}
}

func TestNumFramesProperty(t *testing.T) {
	f := func(n uint16) bool {
		ln := int(n%5000) + 1
		nf := NumFrames(ln, 256, 128)
		if nf < 1 {
			return false
		}
		// Every sample must be covered by some frame.
		lastStart := (nf - 1) * 128
		return lastStart < ln && lastStart+256 >= ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMelScaleRoundTrip(t *testing.T) {
	for _, hz := range []float64{0, 100, 440, 1000, 3999} {
		back := MelToHz(HzToMel(hz))
		if math.Abs(back-hz) > 1e-6*(hz+1) {
			t.Fatalf("round trip %g -> %g", hz, back)
		}
	}
}

func TestMelBankPartition(t *testing.T) {
	bank, err := NewMelBank(20, 256, 8000, 80, 4000)
	if err != nil {
		t.Fatal(err)
	}
	// A flat spectrum must produce strictly positive energies in every
	// filter, and each filter's weights must be nonnegative.
	flat := make([]float64, 129)
	for i := range flat {
		flat[i] = 1
	}
	out, err := bank.Apply(flat)
	if err != nil {
		t.Fatal(err)
	}
	for f, v := range out {
		if v <= 0 {
			t.Fatalf("filter %d has nonpositive response %g", f, v)
		}
	}
	for f, w := range bank.Weights {
		for k, v := range w {
			if v < 0 {
				t.Fatalf("filter %d bin %d negative weight %g", f, k, v)
			}
		}
	}
	if _, err := bank.Apply(make([]float64, 10)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMelBankTransposeAdjoint(t *testing.T) {
	bank, err := NewMelBank(12, 128, 8000, 50, 4000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 65)
	g := make([]float64, 12)
	for i := range x {
		x[i] = rng.Float64()
	}
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	y, err := bank.Apply(x)
	if err != nil {
		t.Fatal(err)
	}
	gx, err := bank.ApplyTranspose(g)
	if err != nil {
		t.Fatal(err)
	}
	var lhs, rhs float64
	for i := range g {
		lhs += g[i] * y[i]
	}
	for i := range x {
		rhs += gx[i] * x[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %g vs %g", lhs, rhs)
	}
}

func TestDCT2Orthonormal(t *testing.T) {
	// Full-length orthonormal DCT-II preserves energy.
	rng := rand.New(rand.NewSource(11))
	x := make([]float64, 20)
	var inE float64
	for i := range x {
		x[i] = rng.NormFloat64()
		inE += x[i] * x[i]
	}
	y := DCT2(x, 20)
	var outE float64
	for _, v := range y {
		outE += v * v
	}
	if math.Abs(inE-outE) > 1e-9 {
		t.Fatalf("energy not preserved: %g vs %g", inE, outE)
	}
}

func TestDCT2TransposeAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := make([]float64, 20)
	g := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	y := DCT2(x, 13)
	gx := DCT2Transpose(g, 20)
	var lhs, rhs float64
	for i := range g {
		lhs += g[i] * y[i]
	}
	for i := range x {
		rhs += gx[i] * x[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjoint mismatch: %g vs %g", lhs, rhs)
	}
}

// dct2TransposeFrozen is DCT2Transpose as it was before it read a plan's
// cosine table: one math.Cos per coefficient per output sample.
func dct2TransposeFrozen(grad []float64, n int) []float64 {
	out := make([]float64, n)
	scale0 := math.Sqrt(1 / float64(n))
	scale := math.Sqrt(2 / float64(n))
	for k, g := range grad {
		if g == 0 {
			continue
		}
		sc := scale
		if k == 0 {
			sc = scale0
		}
		for i := 0; i < n; i++ {
			out[i] += g * sc * math.Cos(math.Pi*float64(k)*(float64(i)+0.5)/float64(n))
		}
	}
	return out
}

// TestDCT2TransposeMatchesFrozenLoop: the table-driven adjoint, through
// DCT2Transpose and through a reused plan writing into a dirty buffer,
// equals the direct formula bit for bit.
func TestDCT2TransposeMatchesFrozenLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tc := range []struct{ n, k int }{{20, 13}, {26, 13}, {40, 20}, {8, 8}, {5, 1}} {
		plan := NewDCT2Plan(tc.n, tc.k)
		dst := make([]float64, tc.n)
		for trial := 0; trial < 20; trial++ {
			g := make([]float64, tc.k)
			for i := range g {
				if rng.Intn(5) > 0 { // keep some exact zeros: the skipped rows
					g[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
				}
			}
			want := dct2TransposeFrozen(g, tc.n)
			for i := range dst {
				dst[i] = rng.NormFloat64()
			}
			plan.TransposeInto(g, dst)
			for i, got := range DCT2Transpose(g, tc.n) {
				//lint:allow floateq the table holds the very cosines the formula computes: bit-identity is the claim
				if got != want[i] || dst[i] != want[i] {
					t.Fatalf("n=%d k=%d trial %d: out[%d] = %v (func), %v (plan), want %v", tc.n, tc.k, trial, i, got, dst[i], want[i])
				}
			}
		}
	}
}

func TestMFCCValidate(t *testing.T) {
	bad := []MFCCConfig{
		{SampleRate: 0, FrameLen: 256, Hop: 128, NumFilters: 20, NumCoeffs: 13},
		{SampleRate: 8000, FrameLen: 0, Hop: 128, NumFilters: 20, NumCoeffs: 13},
		{SampleRate: 8000, FrameLen: 256, Hop: 128, FFTSize: 100, NumFilters: 20, NumCoeffs: 13},
		{SampleRate: 8000, FrameLen: 256, Hop: 128, NumFilters: 5, NumCoeffs: 13},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMFCCExtractShape(t *testing.T) {
	m, err := NewMFCC(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4000) // 0.5 s at 8 kHz
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / 8000)
	}
	feats, err := m.Extract(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != m.NumFrames(len(x)) {
		t.Fatalf("got %d frames, want %d", len(feats), m.NumFrames(len(x)))
	}
	for _, f := range feats {
		if len(f) != 13 {
			t.Fatalf("frame has %d coeffs, want 13", len(f))
		}
		for _, v := range f {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite MFCC coefficient")
			}
		}
	}
	if _, err := m.Extract(nil); err == nil {
		t.Fatal("expected error on empty signal")
	}
}

func TestMFCCDistinguishesTones(t *testing.T) {
	m, err := NewMFCC(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(freq float64) []float64 {
		x := make([]float64, 2048)
		for i := range x {
			x[i] = math.Sin(2 * math.Pi * freq * float64(i) / 8000)
		}
		return x
	}
	a, err := m.Extract(mk(300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Extract(mk(2400))
	if err != nil {
		t.Fatal(err)
	}
	var dist float64
	for j := range a[2] {
		d := a[2][j] - b[2][j]
		dist += d * d
	}
	if dist < 1 {
		t.Fatalf("MFCCs of distant tones too close: %g", dist)
	}
}

// TestMFCCBackwardFiniteDifference is the load-bearing test for the
// white-box attack: the analytic waveform gradient must match central
// finite differences of a scalar loss over the features.
func TestMFCCBackwardFiniteDifference(t *testing.T) {
	cfg := testConfig()
	cfg.FrameLen = 64
	cfg.Hop = 32
	cfg.NumFilters = 12
	cfg.NumCoeffs = 8
	m, err := NewMFCC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	x := make([]float64, 200)
	for i := range x {
		x[i] = 0.5*math.Sin(2*math.Pi*300*float64(i)/8000) + 0.05*rng.NormFloat64()
	}
	// Loss = sum of c_j * feat_j over all frames, fixed random c.
	feats, st, err := m.ExtractWithState(x)
	if err != nil {
		t.Fatal(err)
	}
	coef := make([][]float64, len(feats))
	for f := range coef {
		coef[f] = make([]float64, cfg.NumCoeffs)
		for j := range coef[f] {
			coef[f][j] = rng.NormFloat64()
		}
	}
	loss := func(sig []float64) float64 {
		fs, err := m.Extract(sig)
		if err != nil {
			t.Fatal(err)
		}
		var l float64
		for f := range fs {
			for j := range fs[f] {
				l += coef[f][j] * fs[f][j]
			}
		}
		return l
	}
	grad, err := m.Backward(coef, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(grad) != len(x) {
		t.Fatalf("gradient length %d, want %d", len(grad), len(x))
	}
	const eps = 1e-5
	for _, idx := range []int{0, 1, 17, 63, 64, 100, 150, 199} {
		xp := make([]float64, len(x))
		copy(xp, x)
		xp[idx] += eps
		xm := make([]float64, len(x))
		copy(xm, x)
		xm[idx] -= eps
		num := (loss(xp) - loss(xm)) / (2 * eps)
		if math.Abs(num-grad[idx]) > 1e-4*(math.Abs(num)+math.Abs(grad[idx])+1) {
			t.Fatalf("sample %d: analytic %g numeric %g", idx, grad[idx], num)
		}
	}
}

func TestDeltasOfConstantAreZero(t *testing.T) {
	feats := make([][]float64, 10)
	for i := range feats {
		feats[i] = []float64{3, -1, 2}
	}
	d := Deltas(feats, 2)
	for t2, row := range d {
		for j, v := range row {
			if v != 0 {
				t.Fatalf("frame %d coeff %d: delta %g, want 0", t2, j, v)
			}
		}
	}
}

func TestStackContextRoundTrip(t *testing.T) {
	feats := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	stacked := StackContext(feats, 1)
	if len(stacked) != 4 || len(stacked[0]) != 6 {
		t.Fatalf("bad stacked shape %dx%d", len(stacked), len(stacked[0]))
	}
	// Middle frame t=1 is [f0 f1 f2].
	want := []float64{1, 2, 3, 4, 5, 6}
	for j, v := range want {
		if stacked[1][j] != v {
			t.Fatalf("stacked[1][%d] = %g, want %g", j, stacked[1][j], v)
		}
	}
	// Adjoint check: <g, stack(x)> == <stackBackward(g), x>.
	rng := rand.New(rand.NewSource(23))
	g := make([][]float64, 4)
	for i := range g {
		g[i] = make([]float64, 6)
		for j := range g[i] {
			g[i][j] = rng.NormFloat64()
		}
	}
	back := StackContextBackward(g, 1, 2)
	var lhs, rhs float64
	for i := range g {
		for j := range g[i] {
			lhs += g[i][j] * stacked[i][j]
		}
	}
	for i := range back {
		for j := range back[i] {
			rhs += back[i][j] * feats[i][j]
		}
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("stack adjoint mismatch: %g vs %g", lhs, rhs)
	}
}

func BenchmarkMFCCExtract1s(b *testing.B) {
	m, err := NewMFCC(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 8000)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 440 * float64(i) / 8000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Extract(x); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFingerprintDistinguishesConfigs asserts that the cache key covers
// every MFCCConfig field: perturbing any single field must change the
// fingerprint, or two engines with different front ends would silently
// share cached features.
func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := DefaultMFCCConfig(8000)
	mutants := []struct {
		name   string
		mutate func(c MFCCConfig) MFCCConfig
	}{
		{"SampleRate", func(c MFCCConfig) MFCCConfig { c.SampleRate = 16000; return c }},
		{"FrameLen", func(c MFCCConfig) MFCCConfig { c.FrameLen += 16; return c }},
		{"Hop", func(c MFCCConfig) MFCCConfig { c.Hop += 8; return c }},
		{"FFTSize", func(c MFCCConfig) MFCCConfig { c.FFTSize = 2 * NextPow2(c.FrameLen); return c }},
		{"NumFilters", func(c MFCCConfig) MFCCConfig { c.NumFilters = 23; return c }},
		{"NumCoeffs", func(c MFCCConfig) MFCCConfig { c.NumCoeffs = 12; return c }},
		{"PreEmph", func(c MFCCConfig) MFCCConfig { c.PreEmph = 0.95; return c }},
		{"Window", func(c MFCCConfig) MFCCConfig { c.Window = WindowHann; return c }},
		{"LowHz", func(c MFCCConfig) MFCCConfig { c.LowHz = 120; return c }},
		{"HighHz", func(c MFCCConfig) MFCCConfig { c.HighHz = 3800; return c }},
		{"LogFloor", func(c MFCCConfig) MFCCConfig { c.LogFloor = 1e-8; return c }},
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for _, m := range mutants {
		fp := m.mutate(base).Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s: %q", m.name, prev, fp)
		}
		seen[fp] = m.name
	}
	// Defaulted and explicit forms of the same front end must share a key.
	explicit := base
	explicit.FFTSize = NextPow2(base.FrameLen)
	explicit.HighHz = float64(base.SampleRate) / 2
	if explicit.Fingerprint() != base.Fingerprint() {
		t.Errorf("defaulted %q != explicit %q", base.Fingerprint(), explicit.Fingerprint())
	}
	// The extractor's held copy is the same key.
	m, err := NewMFCC(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint() != base.Fingerprint() {
		t.Errorf("extractor fingerprint %q != config %q", m.Fingerprint(), base.Fingerprint())
	}
}
