package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The parent* functions are frozen copies of the inference front end as it
// ran before the fused frame kernel and the shared FrontEnd: a real frame
// filled and zero-padded, packed in a second loop, bit-reversed by a swap
// pass, one sweep per radix-2 stage, one untangle iteration per bin, a
// dense-skip mel bank. The current code must agree with them under ==
// on every bin and coefficient; there is no tolerance anywhere below.

func parentTransform(p *fftPlan, x []complex128) {
	x = x[:p.n]
	for i, rev := range p.bitrev {
		if j := int(rev); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for _, tw := range p.fwdStages {
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

func parentPower(x []float64, buf []complex128, power []float64) {
	n := len(x)
	h := n / 2
	buf = buf[:h]
	for j := range buf {
		buf[j] = complex(x[2*j], x[2*j+1])
	}
	if n >= 4 {
		parentTransform(getPlan(h), buf)
	}
	re0, im0 := real(buf[0]), imag(buf[0])
	dc := re0 + im0
	ny := re0 - im0
	power[0] = dc * dc
	power[h] = ny * ny
	tw := getPlan(n).fwd
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

// parentFramePower is the frame-fill loop pair that MFCC.extract's
// inference branch and StreamingMFCC.emit each carried a copy of, followed
// by realPlan.power.
func parentFramePower(pre []float64, start, avail int, window []float64, fftSize int, power []float64) {
	frame := make([]float64, fftSize)
	for i := 0; i < avail; i++ {
		frame[i] = pre[start+i] * window[i]
	}
	for i := avail; i < fftSize; i++ {
		frame[i] = 0
	}
	parentPower(frame, make([]complex128, fftSize), power)
}

func parentApplyInto(m *MelBank, power, out []float64) {
	for f, w := range m.sparse {
		base := power[m.starts[f]:]
		var s float64
		for k, wk := range w {
			if wk != 0 {
				s += wk * base[k]
			}
		}
		out[f] = s
	}
}

// parentExtract is MFCC.extract(x, false) of the parent commit.
func parentExtract(m *MFCC, x []float64) [][]float64 {
	cfg := m.cfg
	pre := x
	if cfg.PreEmph != 0 {
		pre = make([]float64, len(x))
		pre[0] = x[0]
		for i := 1; i < len(x); i++ {
			pre[i] = x[i] - cfg.PreEmph*x[i-1]
		}
	}
	nf := NumFrames(len(x), cfg.FrameLen, cfg.Hop)
	feats := make([][]float64, nf)
	power := make([]float64, cfg.FFTSize/2+1)
	mel := make([]float64, cfg.NumFilters)
	logMel := make([]float64, cfg.NumFilters)
	for f := 0; f < nf; f++ {
		start := f * cfg.Hop
		avail := len(pre) - start
		if avail > cfg.FrameLen {
			avail = cfg.FrameLen
		}
		if avail < 0 {
			avail = 0
		}
		parentFramePower(pre, start, avail, m.window, cfg.FFTSize, power)
		parentApplyInto(m.bank, power, mel)
		for i, v := range mel {
			logMel[i] = math.Log(v + cfg.LogFloor)
		}
		feats[f] = make([]float64, cfg.NumCoeffs)
		m.dct.Into(logMel, feats[f])
	}
	return feats
}

func requireSameMatrix(t testing.TB, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for f := range want {
		if len(got[f]) != len(want[f]) {
			t.Fatalf("%s: frame %d has %d coefficients, want %d", what, f, len(got[f]), len(want[f]))
		}
		for j := range want[f] {
			// NaN never arises from the finite test signals, so == is total.
			if got[f][j] != want[f][j] {
				t.Fatalf("%s: frame %d coeff %d = %v, want %v (not bit-identical)", what, f, j, got[f][j], want[f][j])
			}
		}
	}
}

func noisySignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return x
}

// TestPowerKernelBitIdentical compares the fused kernel with the parent's
// fill + pack + swap + per-stage + per-bin pipeline on every bin: FFT sizes
// 2, 4 and 8 (zero, one and two stages in the half-size transform, so the
// lone first stage and the fused pair are both hit with nothing else
// around them) up to 512, every window, frames shorter than the FFT, and
// avail even, odd, 0 and short.
func TestPowerKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{2, 4, 8, 16, 32, 64, 128, 256, 512} {
		plan := newRealPlan(n)
		for _, frameLen := range []int{n, n - 1, n/2 + 1, 1} {
			if frameLen < 1 {
				continue
			}
			for _, kind := range []WindowKind{WindowHamming, WindowHann, WindowRect} {
				window, err := Window(kind, frameLen)
				if err != nil {
					t.Fatal(err)
				}
				for _, avail := range []int{frameLen, frameLen - 1, frameLen / 2, 3, 1, 0} {
					if avail < 0 || avail > frameLen {
						continue
					}
					pre := noisySignal(rng, frameLen+5)
					start := rng.Intn(5)
					want := make([]float64, n/2+1)
					parentFramePower(pre, start, avail, window, n, want)
					got := make([]float64, n/2+1)
					plan.power(pre[start:start+avail], window, make([]complex128, n/2), got)
					for k := range want {
						if got[k] != want[k] {
							t.Fatalf("n=%d frame=%d %v avail=%d bin %d: %v, parent %v", n, frameLen, kind, avail, k, got[k], want[k])
						}
					}
				}
			}
		}
	}
}

// kernelConfigs spans what the kernel's callers can configure: every
// window, no pre-emphasis, an FFT longer than the frame, the three tiny
// FFT sizes, a hop that leaves gaps between frames.
func kernelConfigs() map[string]MFCCConfig {
	cfgs := map[string]MFCCConfig{}
	for _, kind := range []WindowKind{WindowHamming, WindowHann, WindowRect} {
		c := DefaultMFCCConfig(8000)
		c.Window = kind
		cfgs["window-"+kind.String()] = c
	}
	noPre := DefaultMFCCConfig(8000)
	noPre.PreEmph = 0
	cfgs["no-preemph"] = noPre
	longFFT := DefaultMFCCConfig(8000)
	longFFT.FrameLen, longFFT.Hop, longFFT.FFTSize = 200, 80, 512
	cfgs["fft-longer-than-frame"] = longFFT
	oddFrame := DefaultMFCCConfig(8000)
	oddFrame.FrameLen, oddFrame.Hop = 201, 67
	cfgs["odd-frame"] = oddFrame
	for _, n := range []int{2, 4, 8} {
		c := MFCCConfig{SampleRate: 8000, FrameLen: n, Hop: max(1, n/2), FFTSize: n,
			NumFilters: 1, NumCoeffs: 1, PreEmph: 0.97, Window: WindowHamming}
		cfgs[fmt.Sprintf("fft-%d", n)] = c
	}
	wide := DefaultMFCCConfig(8000)
	wide.Hop = wide.FrameLen + 64
	cfgs["wide-hop"] = wide
	return cfgs
}

// TestExtractMatchesParent runs whole clips — one sample, a sample short
// of a frame, exactly a frame, a frame plus a hop plus one (an odd partial
// tail), and a long clip — through Extract and the frozen parent pass.
func TestExtractMatchesParent(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for name, cfg := range kernelConfigs() {
		m, err := NewMFCC(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, n := range []int{1, cfg.FrameLen - 1, cfg.FrameLen, cfg.FrameLen + cfg.Hop + 1, 3001} {
			if n < 1 {
				continue
			}
			x := noisySignal(rng, n)
			got, err := m.Extract(x)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			want := parentExtract(m, x)
			requireSameMatrix(t, fmt.Sprintf("%s n=%d", name, n), got, want)
			// StreamingMFCC.emit was a hand copy of the same loops: the
			// streamed frames answer to the same frozen pass.
			streamed := pushSchedule(t, m.solo, x, repeatChunks(37, n))
			requireSameMatrix(t, fmt.Sprintf("%s n=%d streamed", name, n), streamed[0], want)
		}
	}
}

// TestMelApplyKeepsZeroSkip pins the one case the zero-free fast path must
// not take: a run with an interior zero weight over an infinite bin, where
// multiplying instead of skipping would turn the sum into NaN.
func TestMelApplyKeepsZeroSkip(t *testing.T) {
	bank, err := NewMelBank(8, 64, 8000, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	for f, ok := range bank.zeroFree {
		if !ok {
			t.Fatalf("constructor-built triangle %d has an interior zero", f)
		}
	}
	f := len(bank.sparse) - 1
	if len(bank.sparse[f]) < 3 {
		t.Fatalf("filter %d spans %d bins; the test needs an interior one", f, len(bank.sparse[f]))
	}
	hole := bank.starts[f] + 1
	bank.Weights[f][hole] = 0
	bank.buildSparse()
	if bank.zeroFree[f] {
		t.Fatal("row with an interior zero marked zero-free")
	}
	power := make([]float64, bank.NumBins)
	for k := range power {
		power[k] = float64(k + 1)
	}
	power[hole] = math.Inf(1)
	want := make([]float64, bank.NumFilters)
	parentApplyInto(bank, power, want)
	got, err := bank.ApplyInto(power, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		// A neighbouring filter that weighs the infinite bin is +Inf on
		// both sides; NaN on either would fail this comparison.
		if got[i] != want[i] {
			t.Fatalf("filter %d: %v, parent %v", i, got[i], want[i])
		}
	}
	if _, err := (&MelBank{NumFilters: 1, NumBins: 2, Weights: [][]float64{{1, 1}}}).ApplyInto([]float64{1, 1}, nil); err == nil {
		t.Fatal("struct-literal bank without its sparse view not rejected")
	}
}

// rosterConfigs are the four default-roster front ends of
// internal/asr/train.go (DS0, DS1, GCS, AT at 8 kHz): spectrum groups
// {DS0, AT} {DS1} {GCS}, pre-emphasis groups {DS0, AT} {DS1, GCS}.
func rosterConfigs() []MFCCConfig {
	ds0 := DefaultMFCCConfig(8000)
	ds1 := DefaultMFCCConfig(8000)
	ds1.NumFilters, ds1.LowHz, ds1.PreEmph = 23, 120, 0.95
	gcs := MFCCConfig{SampleRate: 8000, FrameLen: 256, Hop: 128, NumFilters: 24, NumCoeffs: 14,
		PreEmph: 0.95, Window: WindowHann, LowHz: 60}
	at := MFCCConfig{SampleRate: 8000, FrameLen: 256, Hop: 128, NumFilters: 22, NumCoeffs: 13,
		PreEmph: 0.97, Window: WindowHamming, LowHz: 60}
	return []MFCCConfig{ds0, ds1, gcs, at}
}

func rosterExtractors(t testing.TB) []*MFCC {
	var ms []*MFCC
	for _, cfg := range rosterConfigs() {
		m, err := NewMFCC(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// TestFrontEndMatchesIndependentExtracts: one shared pass over the roster
// equals four independent Extract calls (and the parent's), for full
// clips and for clips shorter than a frame; so does every sub-roster,
// which is what a cascade phase hands the front end.
func TestFrontEndMatchesIndependentExtracts(t *testing.T) {
	ms := rosterExtractors(t)
	fe := NewFrontEnd(ms)
	if len(fe.groups) != 3 || len(fe.pres) != 2 {
		t.Fatalf("roster grouped into %d spectrum / %d pre-emphasis groups, want 3 / 2", len(fe.groups), len(fe.pres))
	}
	if got := fe.groups[0].members; len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("DS0's spectrum group is %v, want [0 3] (DS0, AT)", got)
	}
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 255, 256, 385, 12800} {
		x := noisySignal(rng, n)
		for mask := 1; mask < 1<<len(ms); mask++ {
			var sub []*MFCC
			for i, m := range ms {
				if mask&(1<<i) != 0 {
					sub = append(sub, m)
				}
			}
			got, err := NewFrontEnd(sub).Extract(x)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range sub {
				want, err := m.Extract(x)
				if err != nil {
					t.Fatal(err)
				}
				requireSameMatrix(t, fmt.Sprintf("n=%d mask=%04b member %d", n, mask, i), got[i], want)
				requireSameMatrix(t, fmt.Sprintf("n=%d mask=%04b member %d vs parent", n, mask, i), got[i], parentExtract(m, x))
			}
		}
	}
	if _, err := fe.Extract(nil); err == nil {
		t.Fatal("empty signal not rejected")
	}
}

// pushSchedule feeds x through a fresh stream of fe in the given chunk
// sizes (a size past the end takes what is left; leftovers after the
// schedule go in one push) and returns every member's matrix.
func pushSchedule(t testing.TB, fe *FrontEnd, x []float64, sched []int) [][][]float64 {
	s := fe.Stream()
	got := make([][][]float64, len(fe.ms))
	collect := func(rows [][][]float64, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			got[i] = append(got[i], rows[i]...)
		}
	}
	off := 0
	for _, c := range sched {
		c = min(c, len(x)-off)
		collect(s.Push(x[off : off+c]))
		off += c
	}
	collect(s.Push(x[off:]))
	collect(s.Flush())
	return got
}

// TestFrontEndStreamMatchesBatch: the roster's streaming front end, under
// every chunk schedule of the single-extractor parity test, gives every
// member the batch matrix.
func TestFrontEndStreamMatchesBatch(t *testing.T) {
	ms := rosterExtractors(t)
	wide, err := NewMFCC(kernelConfigs()["wide-hop"])
	if err != nil {
		t.Fatal(err)
	}
	fe := NewFrontEnd(append(ms, wide)) // a second reader geometry on DS0's rolling signal
	for _, n := range []int{1, 255, 256, 385, 4000} {
		x := testSignal(n)
		want, err := fe.Extract(x)
		if err != nil {
			t.Fatal(err)
		}
		for name, sched := range chunkSchedules(n) {
			got := pushSchedule(t, fe, x, sched)
			for i := range want {
				requireSameMatrix(t, fmt.Sprintf("n=%d %s member %d", n, name, i), got[i], want[i])
			}
		}
	}
}

// FuzzFrontEndChunking is the dsp-level metamorphic property of the
// streaming contract: whatever chunk schedule the fuzzer picks — 1-sample
// chunks, chunks longer than the clip, empty chunks — every roster member's
// streamed feature matrix == its batch matrix.
func FuzzFrontEndChunking(f *testing.F) {
	f.Add(int64(1), uint16(1500), []byte{1, 1, 1, 255, 0, 7})
	f.Add(int64(2), uint16(300), []byte{255, 255})
	f.Add(int64(3), uint16(1), []byte{})
	f.Add(int64(4), uint16(2049), []byte{128, 128, 1, 64, 3, 200, 31})
	fe := NewFrontEnd(rosterExtractors(f))
	f.Fuzz(func(t *testing.T, seed int64, length uint16, chunks []byte) {
		n := int(length)%4096 + 1
		x := noisySignal(rand.New(rand.NewSource(seed)), n)
		// One byte per chunk: sizes 0..127 as they are, larger ones scaled
		// up so a single chunk can exceed the clip.
		sched := make([]int, len(chunks))
		for i, c := range chunks {
			sched[i] = int(c)
			if c >= 128 {
				sched[i] = (int(c) - 127) * 40
			}
		}
		want, err := fe.Extract(x)
		if err != nil {
			t.Fatal(err)
		}
		got := pushSchedule(t, fe, x, sched)
		for i := range want {
			requireSameMatrix(t, fmt.Sprintf("member %d", i), got[i], want[i])
		}
	})
}

// TestSpectrumFingerprintCoversTheSharedPrefix: the spectrum key ignores
// exactly the fields that act after the power spectrum and changes with
// every other one, or a spectrum group would share a spectrum its members
// do not all compute.
func TestSpectrumFingerprintCoversTheSharedPrefix(t *testing.T) {
	base := DefaultMFCCConfig(8000)
	for name, c := range map[string]MFCCConfig{
		"NumFilters": func(c MFCCConfig) MFCCConfig { c.NumFilters = 23; return c }(base),
		"NumCoeffs":  func(c MFCCConfig) MFCCConfig { c.NumCoeffs = 12; return c }(base),
		"LowHz":      func(c MFCCConfig) MFCCConfig { c.LowHz = 120; return c }(base),
		"HighHz":     func(c MFCCConfig) MFCCConfig { c.HighHz = 3800; return c }(base),
		"LogFloor":   func(c MFCCConfig) MFCCConfig { c.LogFloor = 1e-8; return c }(base),
	} {
		if c.SpectrumFingerprint() != base.SpectrumFingerprint() {
			t.Errorf("%s changed the spectrum key: %q", name, c.SpectrumFingerprint())
		}
		if c.Fingerprint() == base.Fingerprint() {
			t.Errorf("%s left the full fingerprint unchanged", name)
		}
	}
	seen := map[string]string{base.SpectrumFingerprint(): "base"}
	for name, c := range map[string]MFCCConfig{
		"SampleRate": func(c MFCCConfig) MFCCConfig { c.SampleRate = 16000; return c }(base),
		"FrameLen":   func(c MFCCConfig) MFCCConfig { c.FrameLen += 16; c.FFTSize = 512; return c }(base),
		"Hop":        func(c MFCCConfig) MFCCConfig { c.Hop += 8; return c }(base),
		"FFTSize":    func(c MFCCConfig) MFCCConfig { c.FFTSize = 2 * NextPow2(c.FrameLen); return c }(base),
		"PreEmph":    func(c MFCCConfig) MFCCConfig { c.PreEmph = 0.95; return c }(base),
		"Window":     func(c MFCCConfig) MFCCConfig { c.Window = WindowHann; return c }(base),
	} {
		fp := c.SpectrumFingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s: %q", name, prev, fp)
		}
		seen[fp] = name
	}
	explicit := base
	explicit.FFTSize = NextPow2(base.FrameLen)
	if explicit.SpectrumFingerprint() != base.SpectrumFingerprint() {
		t.Errorf("defaulted %q != explicit %q", base.SpectrumFingerprint(), explicit.SpectrumFingerprint())
	}
	m, err := NewMFCC(base)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpectrumFingerprint() != base.SpectrumFingerprint() {
		t.Errorf("extractor spectrum key %q != config %q", m.SpectrumFingerprint(), base.SpectrumFingerprint())
	}
}

var benchSink float64

// BenchmarkPowerFrame is one 256-point frame through the kernel: window,
// pack, half-size FFT, untangle.
func BenchmarkPowerFrame(b *testing.B) {
	m, err := NewMFCC(DefaultMFCCConfig(8000))
	if err != nil {
		b.Fatal(err)
	}
	pre := testSignal(256)
	buf := make([]complex128, 128)
	power := make([]float64, 129)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.rfft.power(pre, m.window, buf, power)
	}
	benchSink = power[17]
}

// BenchmarkFrontEndRoster is the whole front end of one detection: the
// four roster configurations over a 1.6 s clip in one shared pass. Run it
// with -cpu 1.
func BenchmarkFrontEndRoster(b *testing.B) {
	fe := NewFrontEnd(rosterExtractors(b))
	x := testSignal(12800)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feats, err := fe.Extract(x)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = feats[3][0][0]
	}
}
