package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Frozen copies of the one-row-at-a-time loops the inference path ran
// before addMatVec: the blocked kernel must reproduce them bit for bit
// (== on every float, no tolerance).

func refMatVec(dst, w, x []float64) {
	in := len(x)
	for o := range dst {
		s := dst[o]
		row := w[o*in : (o+1)*in]
		for i, v := range x {
			s += row[i] * v
		}
		dst[o] = s
	}
}

func refMLPForward(m *MLP, x []float64) []float64 {
	cur := x
	for l := 0; l < len(m.W); l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		next := make([]float64, out)
		w := m.W[l]
		for o := 0; o < out; o++ {
			s := m.B[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range cur {
				s += row[i] * v
			}
			if l < len(m.W)-1 {
				s = math.Tanh(s)
			}
			next[o] = s
		}
		cur = next
	}
	return cur
}

func refRNNStep(r *RNN, x, h, nh, y []float64) {
	for j := 0; j < r.Hidden; j++ {
		s := r.Bh[j]
		rowX := r.Wx[j*r.In : (j+1)*r.In]
		for i, v := range x {
			s += rowX[i] * v
		}
		rowH := r.Wh[j*r.Hidden : (j+1)*r.Hidden]
		for i, v := range h {
			s += rowH[i] * v
		}
		nh[j] = math.Tanh(s)
	}
	for o := 0; o < r.Out; o++ {
		s := r.By[o]
		row := r.Wy[o*r.Hidden : (o+1)*r.Hidden]
		for i, v := range nh {
			s += row[i] * v
		}
		y[o] = s
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		// Mixed magnitudes make a reordered sum round differently.
		v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return v
}

func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func TestAddMatVecBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	shapes := [][2]int{{1, 1}, {2, 3}, {3, 2}, {4, 4}, {5, 7}, {7, 5}, {8, 91}, {41, 48}, {72, 91}}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(80), 1 + rng.Intn(100)})
	}
	for _, s := range shapes {
		out, in := s[0], s[1]
		// A matrix longer than out*in must leave the extra rows unread.
		w, x, bias := randVec(rng, (out+1)*in), randVec(rng, in), randVec(rng, out)
		got := append([]float64(nil), bias...)
		want := append([]float64(nil), bias...)
		addMatVec(got, w, x)
		refMatVec(want, w, x)
		equalBits(t, "addMatVec", got, want)
	}
}

func TestMLPForwardBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sizes := range [][]int{{65, 64, 41}, {91, 72, 41}, {3, 1, 2}, {6, 5, 7, 3}} {
		m, err := NewMLP(rng, sizes...)
		if err != nil {
			t.Fatal(err)
		}
		scratch := m.NewScratch()
		for k := 0; k < 20; k++ {
			x := randVec(rng, sizes[0])
			want := refMLPForward(m, x)
			got, err := m.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "Forward", got, want)
			got, err = m.ForwardScratch(x, scratch)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "ForwardScratch", got, want)
			got, _, err = m.ForwardCache(x)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, "ForwardCache", got, want)
		}
	}
}

func TestRNNStepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range [][3]int{{28, 48, 41}, {1, 1, 1}, {5, 3, 2}, {7, 9, 6}} {
		r, err := NewRNN(rng, s[0], s[1], s[2])
		if err != nil {
			t.Fatal(err)
		}
		copy(r.Bh, randVec(rng, r.Hidden))
		copy(r.By, randVec(rng, r.Out))
		h, rh := make([]float64, r.Hidden), make([]float64, r.Hidden)
		nh, rnh := make([]float64, r.Hidden), make([]float64, r.Hidden)
		y, ry := make([]float64, r.Out), make([]float64, r.Out)
		var xs [][]float64
		for k := 0; k < 30; k++ {
			// Unit-scale inputs keep tanh out of saturation, so a hidden
			// state that differed in one bit would keep differing.
			f := make([]float64, r.In)
			for i := range f {
				f[i] = rng.NormFloat64()
			}
			xs = append(xs, f)
			if err := r.StepInto(f, h, nh, y); err != nil {
				t.Fatal(err)
			}
			refRNNStep(r, f, rh, rnh, ry)
			equalBits(t, "hidden", nh, rnh)
			equalBits(t, "logits", y, ry)
			h, nh = nh, h
			rh, rnh = rnh, rh
		}
		// ForwardSeq (training, attack) is the same recurrence.
		logits, _, err := r.ForwardSeq(xs)
		if err != nil {
			t.Fatal(err)
		}
		equalBits(t, "ForwardSeq last logits", logits[len(xs)-1], ry)
	}
}

// BenchmarkMatVec times the kernel the layers run (blocked: the lane
// kernel on whole blocks of 8 rows where the CPU has one, addMatVec on
// the rest) at DS1's hidden layer, 72 rows of 91 inputs, against the
// one-row reference loop.
func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const out, in = 72, 91
	w, x, bias := randVec(rng, out*in), randVec(rng, in), randVec(rng, out)
	panel := panelOf(w, out, in)
	dst := make([]float64, out)
	for _, k := range []struct {
		name string
		f    func(dst, w, x []float64)
	}{{"blocked", func(dst, w, x []float64) { mulAdd(dst, w, panel, x) }}, {"reference", refMatVec}} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(dst, bias)
				k.f(dst, w, x)
			}
		})
	}
}

// BenchmarkRNNStep times one recurrence step at the GCS engine's shape.
func BenchmarkRNNStep(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	r, err := NewRNN(rng, 28, 48, 41)
	if err != nil {
		b.Fatal(err)
	}
	x := randVec(rng, r.In)
	h, nh, y := make([]float64, r.Hidden), make([]float64, r.Hidden), make([]float64, r.Out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.StepInto(x, h, nh, y); err != nil {
			b.Fatal(err)
		}
		h, nh = nh, h
	}
}

// BenchmarkMatVecShapes times the Go kernel and the layers' kernel on
// every dense shape the engines run (out×in: DS0's two layers, DS1's
// two, GCS's Wx, Wh and Wy).
func BenchmarkMatVecShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	for _, s := range [][2]int{{64, 65}, {41, 64}, {72, 91}, {41, 72}, {48, 28}, {48, 48}, {41, 48}} {
		out, in := s[0], s[1]
		w, x := randVec(rng, out*in), randVec(rng, in)
		panel := panelOf(w, out, in)
		dst := make([]float64, out)
		b.Run(fmt.Sprintf("%dx%d/go", out, in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addMatVec(dst, w, x)
			}
		})
		b.Run(fmt.Sprintf("%dx%d/layer", out, in), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mulAdd(dst, w, panel, x)
			}
		})
	}
}

// specials are the values FuzzMatVecLanes and its seeds plant among the
// random ones: signed zeros, infinities, NaNs with distinct payloads and
// signs (a lane must stay NaN wherever the scalar chain does; see
// sameBits), subnormals, and magnitudes whose products overflow or
// underflow.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0x7ff8dead0000beef), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64, 1e300,
}

// laneCase derives one kernel input from fuzz arguments: an out×in
// matrix (out up to 80, in up to 100; out need not be a multiple of 8),
// an input vector and a bias, mixed-magnitude random values from seed
// with specials planted where plant says (two bytes each: position, then
// which special).
func laneCase(outB, inB uint8, seed int64, plant []byte) (w, x, bias []float64) {
	out, in := 1+int(outB)%80, int(inB)%101
	rng := rand.New(rand.NewSource(seed))
	w, x, bias = randVec(rng, out*in), randVec(rng, in), randVec(rng, out)
	all := [][]float64{w, x, bias}
	for k := 0; k+1 < len(plant); k += 2 {
		v := all[int(plant[k])%3]
		if len(v) > 0 {
			v[rng.Intn(len(v))] = specials[int(plant[k+1])%len(specials)]
		}
	}
	return w, x, bias
}

// sameBits fails unless got and want hold the same bit patterns, where a
// NaN matches any NaN. Every number, signed zero, infinity and subnormal
// must match bit for bit. A NaN's payload and sign cannot be held to the
// Go kernel: an x86 add or multiply of two NaNs returns its first
// operand's, and the compiler orders the operands of a commutative
// operation as it likes. Seen: on FuzzMatVecLanes' seed #2 addMatVec
// returns 0x7ff8dead0000beef in the plain test binary, which the lane
// kernel matches, and 0xfff8000000000000 in the -fuzz instrumented one.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v (%#x), Go kernel %v (%#x)", what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkMulAdd holds the layers' kernel (the lane kernel on whole blocks
// of 8 rows, where the CPU has one) to addMatVec, bit for bit, on the
// case laneCase derives from its arguments.
func checkMulAdd(t *testing.T, outB, inB uint8, seed int64, plant []byte) {
	t.Helper()
	w, x, bias := laneCase(outB, inB, seed, plant)
	got := append([]float64(nil), bias...)
	want := append([]float64(nil), bias...)
	mulAdd(got, w, panelOf(w, len(bias), len(x)), x)
	addMatVec(want, w, x)
	sameBits(t, "mulAdd", got, want)
}

func FuzzMatVecLanes(f *testing.F) {
	f.Add(uint8(64), uint8(65), int64(1), []byte(nil))
	f.Add(uint8(41), uint8(64), int64(2), []byte{0, 2, 1, 3, 2, 4})
	f.Add(uint8(72), uint8(91), int64(3), []byte{0, 4, 1, 5, 0, 6, 1, 7, 2, 5})
	f.Add(uint8(48), uint8(28), int64(4), []byte{0, 8, 1, 10, 0, 11, 1, 1, 0, 0})
	f.Add(uint8(47), uint8(0), int64(5), []byte{2, 2, 2, 4})
	f.Add(uint8(15), uint8(48), int64(6), []byte{0, 13, 1, 13, 0, 14, 1, 12})
	f.Fuzz(checkMulAdd)
}

// TestMatVecLanesSpecials runs FuzzMatVecLanes' check over a seeded
// sweep of shapes and planted specials, so `go test` covers what the
// fuzz target does without -fuzz.
func TestMatVecLanesSpecials(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for k := 0; k < 1400; k++ {
		plant := make([]byte, 2*rng.Intn(12))
		rng.Read(plant)
		checkMulAdd(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), rng.Int63(), plant)
	}
}

// TestStepDropsLanes trains one step after an inference and checks that
// the next forward runs the new weights: the lane copy derived by the
// first forward must not outlive SGD.Step or RNNSGD.Step.
func TestStepDropsLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	m, err := NewMLP(rng, 65, 64, 41)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(rng, 65)
	logits, cache, err := m.ForwardCache(x)
	if err != nil {
		t.Fatal(err)
	}
	_, dLogits, err := CrossEntropy(logits, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGrads()
	if _, err := m.Backward(cache, dLogits, g); err != nil {
		t.Fatal(err)
	}
	NewSGD(0.5, 0.9).Step(m, g, 1)
	got, err := m.ForwardScratch(x, m.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "MLP forward after SGD.Step", got, refMLPForward(m, x))

	r, err := NewRNN(rng, 28, 48, 41)
	if err != nil {
		t.Fatal(err)
	}
	xs := [][]float64{randVec(rng, 28), randVec(rng, 28)}
	ys, rc, err := r.ForwardSeq(xs)
	if err != nil {
		t.Fatal(err)
	}
	dys := make([][]float64, len(ys))
	for k, y := range ys {
		if _, dys[k], err = CrossEntropy(y, k); err != nil {
			t.Fatal(err)
		}
	}
	rg := r.NewGrads()
	if _, err := r.BackwardSeq(rc, dys, rg); err != nil {
		t.Fatal(err)
	}
	NewRNNSGD(0.5, 0.9, 0).Step(r, rg, 1)
	h, nh, y := make([]float64, 48), make([]float64, 48), make([]float64, 41)
	rnh, ry := make([]float64, 48), make([]float64, 41)
	if err := r.StepInto(xs[0], h, nh, y); err != nil {
		t.Fatal(err)
	}
	refRNNStep(r, xs[0], h, rnh, ry)
	sameBits(t, "RNN hidden after RNNSGD.Step", nh, rnh)
	sameBits(t, "RNN logits after RNNSGD.Step", y, ry)
}
