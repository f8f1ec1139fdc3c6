package nn

import (
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

// BenchmarkMatVec times the kernel at DS1's hidden layer (72 rows of 91
// inputs) against the one-row reference loop.
func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	const out, in = 72, 91
	w, x, bias := randVec(rng, out*in), randVec(rng, in), randVec(rng, out)
	dst := make([]float64, out)
	for _, k := range []struct {
		name string
		f    func(dst, w, x []float64)
	}{{"blocked", addMatVec}, {"reference", refMatVec}} {
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
