package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
)

// RNN is an Elman recurrent network: h_t = tanh(Wx x_t + Wh h_{t-1} + bh),
// logits_t = Wy h_t + by. It is the acoustic model of the GCS-style ASR
// engine, standing in for the LSTM-RNN behind Google Cloud Speech.
//
// Like MLP, a step reads lane copies of the weight matrices derived on
// first use: RNNSGD.Step drops them, and any other in-place edit of Wx,
// Wh or Wy must come before the first step.
type RNN struct {
	In, Hidden, Out int
	Wx              []float64 // Hidden x In
	Wh              []float64 // Hidden x Hidden
	Wy              []float64 // Out x Hidden
	Bh              []float64
	By              []float64
	// lanes holds panelOf of Wx, Wh and Wy; never persisted.
	lanes atomic.Pointer[[3][]float64]
}

// panels returns the lane panels of Wx, Wh and Wy, deriving them on
// first use (nil panels without a lane kernel).
func (r *RNN) panels() [3][]float64 {
	if p := r.lanes.Load(); p != nil {
		return *p
	}
	p := [3][]float64{
		panelOf(r.Wx, r.Hidden, r.In),
		panelOf(r.Wh, r.Hidden, r.Hidden),
		panelOf(r.Wy, r.Out, r.Hidden),
	}
	r.lanes.Store(&p)
	return p
}

// NewRNN builds an Elman network with scaled random initialization.
func NewRNN(rng *rand.Rand, in, hidden, out int) (*RNN, error) {
	if in <= 0 || hidden <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: invalid RNN shape %dx%dx%d", in, hidden, out)
	}
	r := &RNN{In: in, Hidden: hidden, Out: out}
	initMat := func(rows, cols int) []float64 {
		w := make([]float64, rows*cols)
		scale := math.Sqrt(1.0 / float64(cols))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		return w
	}
	r.Wx = initMat(hidden, in)
	r.Wh = initMat(hidden, hidden)
	r.Wy = initMat(out, hidden)
	r.Bh = make([]float64, hidden)
	r.By = make([]float64, out)
	return r, nil
}

// RNNCache retains the activations of a ForwardSeq call for BPTT.
type RNNCache struct {
	xs [][]float64
	hs [][]float64 // hs[t] is the hidden state after step t
}

// StepInto advances the recurrence by one frame: given input x and hidden
// state h it writes the next hidden state into nh and, when y is non-nil,
// the output logits into y. It is the single step shared by ForwardSeq
// and the streaming ASR path, so the two can never drift numerically. nh
// must not alias h.
func (r *RNN) StepInto(x, h, nh, y []float64) error {
	if len(x) != r.In {
		return fmt.Errorf("nn: frame has size %d, want %d", len(x), r.In)
	}
	// Each pre-activation is Bh[j] + Wx[j]·x + Wh[j]·h summed in that
	// order: the second product continues the first one's chains.
	p := r.panels()
	nh = nh[:r.Hidden]
	copy(nh, r.Bh)
	mulAdd(nh, r.Wx, p[0], x)
	mulAdd(nh, r.Wh, p[1], h[:r.Hidden])
	tanhInPlace(nh)
	if y != nil {
		y = y[:r.Out]
		copy(y, r.By)
		mulAdd(y, r.Wy, p[2], nh)
	}
	return nil
}

// ForwardSeq runs the network over a sequence of input frames and returns
// per-frame logits.
func (r *RNN) ForwardSeq(xs [][]float64) ([][]float64, *RNNCache, error) {
	logits := make([][]float64, len(xs))
	cache := &RNNCache{xs: make([][]float64, len(xs)), hs: make([][]float64, len(xs))}
	h := make([]float64, r.Hidden)
	for t, x := range xs {
		nh := make([]float64, r.Hidden)
		y := make([]float64, r.Out)
		if err := r.StepInto(x, h, nh, y); err != nil {
			return nil, nil, fmt.Errorf("nn: frame %d: %w", t, err)
		}
		h = nh
		xc := make([]float64, len(x))
		copy(xc, x)
		cache.xs[t] = xc
		cache.hs[t] = h
		logits[t] = y
	}
	return logits, cache, nil
}

// RNNGrads accumulates parameter gradients.
type RNNGrads struct {
	Wx, Wh, Wy, Bh, By []float64
}

// NewGrads allocates a zeroed accumulator matching r.
func (r *RNN) NewGrads() *RNNGrads {
	return &RNNGrads{
		Wx: make([]float64, len(r.Wx)),
		Wh: make([]float64, len(r.Wh)),
		Wy: make([]float64, len(r.Wy)),
		Bh: make([]float64, len(r.Bh)),
		By: make([]float64, len(r.By)),
	}
}

// Zero resets the accumulator.
func (g *RNNGrads) Zero() {
	for _, s := range [][]float64{g.Wx, g.Wh, g.Wy, g.Bh, g.By} {
		for i := range s {
			s[i] = 0
		}
	}
}

// BackwardSeq performs truncated-free full BPTT over the cached sequence,
// accumulating parameter gradients into g (if non-nil) and returning
// per-frame input gradients.
func (r *RNN) BackwardSeq(cache *RNNCache, dLogits [][]float64, g *RNNGrads) ([][]float64, error) {
	if cache == nil || len(cache.hs) != len(dLogits) {
		return nil, fmt.Errorf("nn: BackwardSeq cache/gradient length mismatch")
	}
	T := len(dLogits)
	dxs := make([][]float64, T)
	dhNext := make([]float64, r.Hidden)
	for t := T - 1; t >= 0; t-- {
		h := cache.hs[t]
		dy := dLogits[t]
		if len(dy) != r.Out {
			return nil, fmt.Errorf("nn: frame %d gradient size %d, want %d", t, len(dy), r.Out)
		}
		// dh = Wy^T dy + dhNext
		dh := make([]float64, r.Hidden)
		copy(dh, dhNext)
		for o := 0; o < r.Out; o++ {
			d := dy[o]
			row := r.Wy[o*r.Hidden : (o+1)*r.Hidden]
			if g != nil {
				g.By[o] += d
				grow := g.Wy[o*r.Hidden : (o+1)*r.Hidden]
				for i, v := range h {
					grow[i] += d * v
				}
			}
			for i := range dh {
				dh[i] += d * row[i]
			}
		}
		// Through tanh.
		dz := make([]float64, r.Hidden)
		for j := range dz {
			dz[j] = dh[j] * (1 - h[j]*h[j])
		}
		var hPrev []float64
		if t > 0 {
			hPrev = cache.hs[t-1]
		} else {
			hPrev = make([]float64, r.Hidden)
		}
		x := cache.xs[t]
		dx := make([]float64, r.In)
		dhPrev := make([]float64, r.Hidden)
		for j := 0; j < r.Hidden; j++ {
			d := dz[j]
			if g != nil {
				g.Bh[j] += d
				growX := g.Wx[j*r.In : (j+1)*r.In]
				for i, v := range x {
					growX[i] += d * v
				}
				growH := g.Wh[j*r.Hidden : (j+1)*r.Hidden]
				for i, v := range hPrev {
					growH[i] += d * v
				}
			}
			rowX := r.Wx[j*r.In : (j+1)*r.In]
			for i := range dx {
				dx[i] += d * rowX[i]
			}
			rowH := r.Wh[j*r.Hidden : (j+1)*r.Hidden]
			for i := range dhPrev {
				dhPrev[i] += d * rowH[i]
			}
		}
		dxs[t] = dx
		dhNext = dhPrev
	}
	return dxs, nil
}

// RNNSGD applies momentum SGD to an RNN with gradient clipping, which BPTT
// needs for stability.
type RNNSGD struct {
	LR       float64
	Momentum float64
	Clip     float64 // max gradient L2 norm (0 disables clipping)
	v        *RNNGrads
}

// NewRNNSGD creates the optimizer.
func NewRNNSGD(lr, momentum, clip float64) *RNNSGD {
	return &RNNSGD{LR: lr, Momentum: momentum, Clip: clip}
}

// Step applies accumulated gradients scaled by 1/batchSize.
func (s *RNNSGD) Step(r *RNN, g *RNNGrads, batchSize int) {
	if batchSize <= 0 {
		batchSize = 1
	}
	if s.v == nil {
		s.v = r.NewGrads()
	}
	inv := 1 / float64(batchSize)
	if s.Clip > 0 {
		var norm float64
		for _, sl := range [][]float64{g.Wx, g.Wh, g.Wy, g.Bh, g.By} {
			for _, v := range sl {
				norm += v * v * inv * inv
			}
		}
		norm = math.Sqrt(norm)
		if norm > s.Clip {
			inv *= s.Clip / norm
		}
	}
	apply := func(w, gw, vw []float64) {
		for i := range w {
			vw[i] = s.Momentum*vw[i] - s.LR*gw[i]*inv
			w[i] += vw[i]
		}
	}
	apply(r.Wx, g.Wx, s.v.Wx)
	apply(r.Wh, g.Wh, s.v.Wh)
	apply(r.Wy, g.Wy, s.v.Wy)
	apply(r.Bh, g.Bh, s.v.Bh)
	apply(r.By, g.By, s.v.By)
	r.lanes.Store(nil)
}

// Save serializes the model with gob.
func (r *RNN) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(r); err != nil {
		return fmt.Errorf("nn: encoding RNN: %w", err)
	}
	return nil
}

// LoadRNN deserializes a model written by Save.
func LoadRNN(rd io.Reader) (*RNN, error) {
	var r RNN
	if err := gob.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("nn: decoding RNN: %w", err)
	}
	return &r, nil
}
