// Package nn implements the neural-network substrate for the DeepSpeech-
// style acoustic models: dense feedforward networks (MLP), an Elman
// recurrent network, softmax/cross-entropy losses, and SGD training — all
// with exact backpropagation, including gradients with respect to the
// *input*, which the white-box attack requires.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"
)

// MLP is a fully connected feedforward network with tanh hidden layers and
// a linear output layer (logits).
//
// The forward pass reads a copy of W in the lane kernel's layout, derived
// on first use. SGD.Step drops it; any other in-place edit of W must come
// before the model's first forward pass.
type MLP struct {
	Sizes []int       // layer widths, e.g. [65, 64, 41]
	W     [][]float64 // W[l] is Sizes[l+1] x Sizes[l], row-major
	B     [][]float64 // B[l] has Sizes[l+1] entries
	// lanes holds panelOf(W[l]) per layer. Unexported, so persistence
	// (which only sees exported fields) never writes it.
	lanes atomic.Pointer[[][]float64]
}

// NewMLP builds a network with Xavier-style initialization drawn from rng.
func NewMLP(rng *rand.Rand, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least 2 layer sizes, got %d", len(sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: layer size %d must be positive", s)
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	m.W = make([][]float64, len(sizes)-1)
	m.B = make([][]float64, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.W[l] = w
		m.B[l] = make([]float64, out)
	}
	return m, nil
}

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.W) }

// InputSize returns the expected input dimension.
func (m *MLP) InputSize() int { return m.Sizes[0] }

// OutputSize returns the logits dimension.
func (m *MLP) OutputSize() int { return m.Sizes[len(m.Sizes)-1] }

// MLPCache holds the per-layer activations of one forward pass.
type MLPCache struct {
	acts [][]float64 // acts[0] = input, acts[L] = logits
}

// Forward computes logits for a single input vector.
func (m *MLP) Forward(x []float64) ([]float64, error) {
	logits, _, err := m.forward(x, false)
	return logits, err
}

// ForwardCache computes logits and retains activations for Backward.
func (m *MLP) ForwardCache(x []float64) ([]float64, *MLPCache, error) {
	return m.forward(x, true)
}

func (m *MLP) forward(x []float64, keep bool) ([]float64, *MLPCache, error) {
	if len(x) != m.InputSize() {
		return nil, nil, fmt.Errorf("nn: input size %d, want %d", len(x), m.InputSize())
	}
	var cache *MLPCache
	if keep {
		cache = &MLPCache{acts: make([][]float64, 0, len(m.W)+1)}
		in := make([]float64, len(x))
		copy(in, x)
		cache.acts = append(cache.acts, in)
	}
	cur := x
	for l := 0; l < len(m.W); l++ {
		next := make([]float64, m.Sizes[l+1])
		m.layer(l, cur, next)
		cur = next
		if keep {
			cache.acts = append(cache.acts, next)
		}
	}
	return cur, cache, nil
}

// panels returns the lane panels of every layer, deriving them on first
// use (nil panels without a lane kernel). Concurrent first calls derive
// equal copies and the last one stored wins.
func (m *MLP) panels() [][]float64 {
	if p := m.lanes.Load(); p != nil {
		return *p
	}
	p := make([][]float64, len(m.W))
	for l, w := range m.W {
		p[l] = panelOf(w, m.Sizes[l+1], m.Sizes[l])
	}
	m.lanes.Store(&p)
	return p
}

// layer writes layer l's activations for input cur into next
// (len Sizes[l+1]): bias plus weighted sum, through tanh on every layer
// but the last.
func (m *MLP) layer(l int, cur, next []float64) {
	copy(next, m.B[l])
	mulAdd(next, m.W[l], m.panels()[l], cur)
	if l < len(m.W)-1 {
		tanhInPlace(next)
	}
}

// MLPScratch holds reusable per-layer activation buffers for
// ForwardScratch. One scratch belongs to one goroutine at a time; get a
// fresh one per concurrent inference loop with NewScratch.
type MLPScratch struct {
	acts [][]float64
}

// NewScratch allocates a scratch sized for m's layers.
func (m *MLP) NewScratch() *MLPScratch {
	s := &MLPScratch{acts: make([][]float64, len(m.W))}
	for l := range m.W {
		s.acts[l] = make([]float64, m.Sizes[l+1])
	}
	return s
}

// ForwardScratch computes logits like Forward but without heap
// allocations: all intermediate and output buffers live in scratch, and
// the returned slice aliases scratch (valid until the next call with the
// same scratch).
func (m *MLP) ForwardScratch(x []float64, scratch *MLPScratch) ([]float64, error) {
	if len(x) != m.InputSize() {
		return nil, fmt.Errorf("nn: input size %d, want %d", len(x), m.InputSize())
	}
	cur := x
	for l := range m.W {
		m.layer(l, cur, scratch.acts[l])
		cur = scratch.acts[l]
	}
	return cur, nil
}

// Grads accumulates parameter gradients for an MLP.
type Grads struct {
	W [][]float64
	B [][]float64
}

// NewGrads allocates a zeroed gradient accumulator matching m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{W: make([][]float64, len(m.W)), B: make([][]float64, len(m.B))}
	for l := range m.W {
		g.W[l] = make([]float64, len(m.W[l]))
		g.B[l] = make([]float64, len(m.B[l]))
	}
	return g
}

// Zero resets the accumulator.
func (g *Grads) Zero() {
	for l := range g.W {
		for i := range g.W[l] {
			g.W[l][i] = 0
		}
		for i := range g.B[l] {
			g.B[l][i] = 0
		}
	}
}

// Backward propagates dLoss/dlogits through the cached forward pass,
// accumulating parameter gradients into g (if non-nil) and returning
// dLoss/dinput.
func (m *MLP) Backward(cache *MLPCache, dLogits []float64, g *Grads) ([]float64, error) {
	if cache == nil || len(cache.acts) != len(m.W)+1 {
		return nil, fmt.Errorf("nn: Backward needs a cache from ForwardCache")
	}
	if len(dLogits) != m.OutputSize() {
		return nil, fmt.Errorf("nn: gradient size %d, want %d", len(dLogits), m.OutputSize())
	}
	delta := make([]float64, len(dLogits))
	copy(delta, dLogits)
	for l := len(m.W) - 1; l >= 0; l-- {
		in, out := m.Sizes[l], m.Sizes[l+1]
		aPrev := cache.acts[l]
		if l < len(m.W)-1 {
			// tanh' = 1 - a^2 where a is the post-activation output.
			a := cache.acts[l+1]
			for o := 0; o < out; o++ {
				delta[o] *= 1 - a[o]*a[o]
			}
		}
		if g != nil {
			gw := g.W[l]
			for o := 0; o < out; o++ {
				d := delta[o]
				g.B[l][o] += d
				row := gw[o*in : (o+1)*in]
				for i, v := range aPrev {
					row[i] += d * v
				}
			}
		}
		if l > 0 {
			prev := make([]float64, in)
			w := m.W[l]
			for o := 0; o < out; o++ {
				d := delta[o]
				row := w[o*in : (o+1)*in]
				for i := range prev {
					prev[i] += d * row[i]
				}
			}
			delta = prev
		} else {
			dx := make([]float64, in)
			w := m.W[0]
			for o := 0; o < out; o++ {
				d := delta[o]
				row := w[o*in : (o+1)*in]
				for i := range dx {
					dx[i] += d * row[i]
				}
			}
			return dx, nil
		}
	}
	return nil, fmt.Errorf("nn: unreachable")
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vW       [][]float64
	vB       [][]float64
}

// NewSGD creates an optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum}
}

// Step applies accumulated gradients (scaled by 1/batchSize) to the model.
func (s *SGD) Step(m *MLP, g *Grads, batchSize int) {
	if batchSize <= 0 {
		batchSize = 1
	}
	if s.vW == nil {
		s.vW = make([][]float64, len(m.W))
		s.vB = make([][]float64, len(m.B))
		for l := range m.W {
			s.vW[l] = make([]float64, len(m.W[l]))
			s.vB[l] = make([]float64, len(m.B[l]))
		}
	}
	inv := 1 / float64(batchSize)
	for l := range m.W {
		for i := range m.W[l] {
			s.vW[l][i] = s.Momentum*s.vW[l][i] - s.LR*g.W[l][i]*inv
			m.W[l][i] += s.vW[l][i]
		}
		for i := range m.B[l] {
			s.vB[l][i] = s.Momentum*s.vB[l][i] - s.LR*g.B[l][i]*inv
			m.B[l][i] += s.vB[l][i]
		}
	}
	m.lanes.Store(nil)
}

// Softmax returns the softmax of logits (numerically stabilized).
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	if len(logits) == 0 {
		return out
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogSoftmax returns log(softmax(logits)).
func LogSoftmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	if len(logits) == 0 {
		return out
	}
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(v - max)
	}
	lse := max + math.Log(sum)
	for i, v := range logits {
		out[i] = v - lse
	}
	return out
}

// CrossEntropy returns the CE loss of logits against the target class and
// dLoss/dlogits (softmax minus one-hot).
func CrossEntropy(logits []float64, target int) (float64, []float64, error) {
	if target < 0 || target >= len(logits) {
		return 0, nil, fmt.Errorf("nn: target %d out of range [0,%d)", target, len(logits))
	}
	p := Softmax(logits)
	loss := -math.Log(math.Max(p[target], 1e-300))
	grad := p
	grad[target] -= 1
	return loss, grad, nil
}

// Argmax returns the index of the largest element (first on ties, -1 for
// empty input).
func Argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Save serializes the model with gob.
func (m *MLP) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("nn: encoding MLP: %w", err)
	}
	return nil
}

// LoadMLP deserializes a model written by Save.
func LoadMLP(r io.Reader) (*MLP, error) {
	var m MLP
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: decoding MLP: %w", err)
	}
	return &m, nil
}
