package hmm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Frozen copies of the loops this package ran before the log-weight
// cache, the transposed transition table and the chunked lattice: the
// optimized code must reproduce them bit for bit (== on every float, no
// tolerance).

func refGMMLogProb(m *GMM, x []float64) float64 {
	out := math.Inf(-1)
	for i, c := range m.Components {
		if m.Weights[i] <= 0 {
			continue
		}
		s := math.Inf(-1)
		if len(x) == len(c.Mean) {
			s = c.logNorm
			for k, v := range x {
				d := v - c.Mean[k]
				s -= 0.5 * d * d / c.Var[k]
			}
		}
		out = logSumExp(out, math.Log(m.Weights[i])+s)
	}
	return out
}

func refEmit(e Emitter, x []float64) float64 {
	if m, ok := e.(*GMM); ok {
		return refGMMLogProb(m, x)
	}
	return e.LogProb(x)
}

func refViterbi(h *HMM, obs [][]float64) ([]int, float64) {
	n := h.NumStates
	prevDelta := make([]float64, n)
	delta := make([]float64, n)
	back := [][]int32{make([]int32, n)}
	for i := 0; i < n; i++ {
		prevDelta[i] = h.LogInit[i] + refEmit(h.Emitters[i], obs[0])
	}
	for _, o := range obs[1:] {
		bt := make([]int32, n)
		for j := 0; j < n; j++ {
			bestScore, bestState := math.Inf(-1), 0
			for i := 0; i < n; i++ {
				s := prevDelta[i] + h.LogTrans[i][j]
				if s > bestScore {
					bestScore, bestState = s, i
				}
			}
			delta[j] = bestScore + refEmit(h.Emitters[j], o)
			bt[j] = int32(bestState)
		}
		back = append(back, bt)
		prevDelta, delta = delta, prevDelta
	}
	bestScore, bestState := math.Inf(-1), 0
	for i := 0; i < n; i++ {
		if prevDelta[i] > bestScore {
			bestScore, bestState = prevDelta[i], i
		}
	}
	path := make([]int, len(obs))
	path[len(obs)-1] = bestState
	for t := len(obs) - 1; t > 0; t-- {
		path[t-1] = int(back[t][path[t]])
	}
	return path, bestScore
}

// randomModel builds an n-state HMM over dim-dimensional observations
// whose emitters alternate between mixtures (one with a zero weight, which
// LogProb must skip) and single Gaussians, like the trained AT engine.
func randomModel(t testing.TB, rng *rand.Rand, n, dim int) *HMM {
	t.Helper()
	gauss := func() *Gaussian {
		mean, variance := make([]float64, dim), make([]float64, dim)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 3
			variance[i] = 0.2 + rng.Float64()*4
		}
		g, err := NewGaussian(mean, variance)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	emitters := make([]Emitter, n)
	for s := range emitters {
		switch s % 3 {
		case 0:
			emitters[s] = gauss()
		case 1:
			w := 0.1 + 0.8*rng.Float64()
			m, err := NewGMM([]float64{w, 1 - w}, []*Gaussian{gauss(), gauss()})
			if err != nil {
				t.Fatal(err)
			}
			emitters[s] = m
		default:
			m, err := NewGMM([]float64{0.25, 0, 0.75}, []*Gaussian{gauss(), gauss(), gauss()})
			if err != nil {
				t.Fatal(err)
			}
			emitters[s] = m
		}
	}
	seqs := make([][]int, 20)
	for i := range seqs {
		seqs[i] = make([]int, 30)
		for k := range seqs[i] {
			seqs[i][k] = rng.Intn(n)
		}
	}
	logInit, logTrans, err := EstimateTransitions(seqs, n, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHMM(logInit, logTrans, emitters)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func randomObs(rng *rand.Rand, frames, dim int) [][]float64 {
	obs := make([][]float64, frames)
	for t := range obs {
		obs[t] = make([]float64, dim)
		for i := range obs[t] {
			obs[t][i] = rng.NormFloat64() * 4
		}
	}
	return obs
}

func TestGMMLogProbBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := randomModel(t, rng, 9, 13)
	for _, o := range randomObs(rng, 200, 13) {
		for s, e := range h.Emitters {
			m, ok := e.(*GMM)
			if !ok {
				continue
			}
			if got, want := m.LogProb(o), refGMMLogProb(m, o); got != want {
				t.Fatalf("state %d: LogProb %v, reference %v", s, got, want)
			}
		}
	}
	// A wrong-dimension observation still scores -Inf.
	m := h.Emitters[1].(*GMM)
	if got := m.LogProb(make([]float64, 5)); !math.IsInf(got, -1) {
		t.Fatalf("dimension mismatch scored %v, want -Inf", got)
	}
}

func TestFitGMMCachesLogWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	samples := randomObs(rng, 300, 4)
	m, err := FitGMM(samples, 3, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range samples[:50] {
		if got, want := m.LogProb(o), refGMMLogProb(m, o); got != want {
			t.Fatalf("fitted mixture LogProb %v, reference %v", got, want)
		}
	}
}

// TestViterbiBitIdentical checks path AND score against the frozen
// loop, for the batch form (one lattice chunk) and the streaming form
// (several chunks, with a provisional Path read mid-stream), at sizes on
// both sides of the chunk length.
func TestViterbiBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 5, 41} {
		h := randomModel(t, rng, n, 13)
		for _, frames := range []int{1, 2, streamChunkFrames - 1, streamChunkFrames, streamChunkFrames + 1, 3*streamChunkFrames + 7} {
			obs := randomObs(rng, frames, 13)
			wantPath, wantScore := refViterbi(h, obs)
			check := func(form string, path []int, score float64, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s n=%d T=%d: %v", form, n, frames, err)
				}
				if score != wantScore {
					t.Fatalf("%s n=%d T=%d: score %v, reference %v", form, n, frames, score, wantScore)
				}
				for i := range wantPath {
					if path[i] != wantPath[i] {
						t.Fatalf("%s n=%d T=%d: path[%d] = %d, reference %d", form, n, frames, i, path[i], wantPath[i])
					}
				}
			}
			path, score, err := h.Viterbi(obs)
			check("batch", path, score, err)
			v := h.Stream()
			for i, o := range obs {
				v.Step(o)
				if i == frames/2 {
					// A window's read: the tail of the provisional path.
					whole, score, err := v.Path()
					if err != nil {
						t.Fatal(err)
					}
					tail, tailScore, err := v.PathFrom(i / 3)
					if err != nil {
						t.Fatal(err)
					}
					if tailScore != score || !reflect.DeepEqual(tail, whole[i/3:]) {
						t.Fatalf("n=%d T=%d: PathFrom(%d) is not the tail of Path", n, frames, i/3)
					}
				}
			}
			path, score, err = v.Path()
			check("stream", path, score, err)
			if _, _, err := v.PathFrom(frames); err == nil {
				t.Fatalf("PathFrom(%d) of %d observations did not fail", frames, frames)
			}
		}
	}
}

// BenchmarkViterbiStep times one lattice column at the AT engine's shape:
// 41 states, 13 cepstra, two-component mixtures on most states.
func BenchmarkViterbiStep(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	h := randomModel(b, rng, 41, 13)
	obs := randomObs(rng, 256, 13)
	v := h.Stream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Len() == len(obs) {
			v = h.Stream()
		}
		v.Step(obs[v.Len()])
	}
}

// refLogSumExp is logSumExp as it ran before the exact prune: the full
// expression on every call.
func refLogSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// sameFloat is == that also accepts NaN for NaN (the prune must not turn
// a NaN into a number or back).
func sameFloat(x, y float64) bool {
	return x == y || (math.IsNaN(x) && math.IsNaN(y))
}

// TestLogSumExpPruneBitIdentical walks the prune's two thresholds from
// both sides: |a| at 1, one ulp either side of it, every power of two up
// to 2^60 and both signs, zero, infinities and NaN; b placed so that b−a
// lands on −38, one ulp either side of it, far below it and above it.
func TestLogSumExpPruneBitIdentical(t *testing.T) {
	var as []float64
	for _, m := range []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, 0.75, 1e-300, 0} {
		as = append(as, m, -m)
	}
	for k := -4; k <= 60; k++ {
		p := math.Ldexp(1, k)
		as = append(as, p, -p, math.Nextafter(p, 0), -math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), -math.Nextafter(p, math.Inf(1)))
	}
	as = append(as, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64)
	ds := []float64{-38, math.Nextafter(-38, 0), math.Nextafter(-38, math.Inf(-1)),
		-37, -39, -37.999999, -38.000001, -50, -700, -745.2, -800, -1e300, math.Inf(-1), 0, -1e-9, -1, -20, math.NaN()}
	pruned, checked := 0, 0
	for _, a := range as {
		for _, d := range ds {
			// a+d rounds, so nudge b around it as well: the comparison in
			// the function is on the computed b−a, whatever it comes to.
			for _, b := range []float64{a + d, math.Nextafter(a+d, math.Inf(1)), math.Nextafter(a+d, math.Inf(-1))} {
				for _, args := range [][2]float64{{a, b}, {b, a}} {
					got, want := logSumExp(args[0], args[1]), refLogSumExp(args[0], args[1])
					if !sameFloat(got, want) {
						t.Fatalf("logSumExp(%v, %v) = %v, unpruned %v", args[0], args[1], got, want)
					}
					checked++
					hi, lo := max(args[0], args[1]), min(args[0], args[1])
					if lo-hi <= -38 && math.Abs(hi) >= 1 && !math.IsInf(lo, -1) {
						pruned++
					}
				}
			}
		}
	}
	if pruned < checked/10 || pruned > checked*9/10 {
		t.Fatalf("grid is one-sided: %d of %d calls meet the prune condition", pruned, checked)
	}
}
