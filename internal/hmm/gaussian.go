// Package hmm implements diagonal-covariance Gaussians, Gaussian mixture
// models, and a hidden Markov model with Viterbi decoding. Together they
// form the classical (non-neural) acoustic model used by the
// Amazon-Transcribe-style ASR engine, giving the detector a maximally
// architecture-diverse auxiliary.
package hmm

import (
	"fmt"
	"math"
	"math/rand"
)

const (
	log2Pi   = 1.8378770664093453 // log(2*pi)
	varFloor = 1e-4               // variance floor for numerical stability
)

// Gaussian is a diagonal-covariance multivariate normal distribution.
type Gaussian struct {
	Mean []float64
	Var  []float64
	// logNorm caches -0.5 * (D*log(2pi) + sum log var).
	logNorm float64
}

// NewGaussian builds a Gaussian after flooring variances and caching the
// normalizer.
func NewGaussian(mean, variance []float64) (*Gaussian, error) {
	if len(mean) == 0 || len(mean) != len(variance) {
		return nil, fmt.Errorf("hmm: mean/variance dims %d/%d invalid", len(mean), len(variance))
	}
	g := &Gaussian{Mean: append([]float64(nil), mean...), Var: append([]float64(nil), variance...)}
	g.finalize()
	return g, nil
}

func (g *Gaussian) finalize() {
	var sumLogVar float64
	for i, v := range g.Var {
		if v < varFloor {
			g.Var[i] = varFloor
			v = varFloor
		}
		sumLogVar += math.Log(v)
	}
	g.logNorm = -0.5 * (float64(len(g.Mean))*log2Pi + sumLogVar)
}

// LogProb returns the log density of x.
func (g *Gaussian) LogProb(x []float64) float64 {
	if len(x) != len(g.Mean) {
		return math.Inf(-1)
	}
	s := g.logNorm
	for i, v := range x {
		d := v - g.Mean[i]
		s -= 0.5 * d * d / g.Var[i]
	}
	return s
}

// FitGaussian estimates a Gaussian by maximum likelihood from samples.
func FitGaussian(samples [][]float64) (*Gaussian, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("hmm: cannot fit Gaussian to zero samples")
	}
	d := len(samples[0])
	mean := make([]float64, d)
	for _, s := range samples {
		if len(s) != d {
			return nil, fmt.Errorf("hmm: inconsistent sample dimension %d vs %d", len(s), d)
		}
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(samples))
	}
	variance := make([]float64, d)
	for _, s := range samples {
		for i, v := range s {
			diff := v - mean[i]
			variance[i] += diff * diff
		}
	}
	for i := range variance {
		variance[i] /= float64(len(samples))
	}
	return NewGaussian(mean, variance)
}

// GMM is a mixture of diagonal Gaussians. Build one with NewGMM or
// FitGMM: LogProb reads the cached log weights.
type GMM struct {
	Weights    []float64 // mixture weights, sum to 1
	Components []*Gaussian
	// logW caches log(Weights[i]). Unexported, so persistence (which
	// snapshots the exported fields) never sees it; it is re-derived at
	// load.
	logW []float64
}

// NewGMM wraps mixture parameters, caching the log weights.
func NewGMM(weights []float64, components []*Gaussian) (*GMM, error) {
	if len(weights) != len(components) {
		return nil, fmt.Errorf("hmm: %d mixture weights for %d components", len(weights), len(components))
	}
	m := &GMM{Weights: weights, Components: components, logW: make([]float64, len(weights))}
	for i, w := range weights {
		m.logW[i] = math.Log(w)
	}
	return m, nil
}

// LogProb returns the log density of x under the mixture. Components are
// scored two at a time (logProbPair) and folded in index order.
func (m *GMM) LogProb(x []float64) float64 {
	out := math.Inf(-1)
	add := func(i int, p float64) {
		if m.Weights[i] > 0 {
			out = logSumExp(out, m.logW[i]+p)
		}
	}
	cs := m.Components
	i := 0
	for ; i+2 <= len(cs); i += 2 {
		p0, p1 := logProbPair(cs[i], cs[i+1], x)
		add(i, p0)
		add(i+1, p1)
	}
	if i < len(cs) {
		add(i, cs[i].LogProb(x))
	}
	return out
}

// logProbPair returns a.LogProb(x) and b.LogProb(x). Each sum runs in
// index order exactly as in Gaussian.LogProb; evaluating the two side by
// side lets their divide-and-subtract chains overlap.
func logProbPair(a, b *Gaussian, x []float64) (float64, float64) {
	if len(x) != len(a.Mean) || len(x) != len(b.Mean) {
		return a.LogProb(x), b.LogProb(x)
	}
	am, av := a.Mean[:len(x)], a.Var[:len(x)]
	bm, bv := b.Mean[:len(x)], b.Var[:len(x)]
	s0, s1 := a.logNorm, b.logNorm
	for i, v := range x {
		d0 := v - am[i]
		d1 := v - bm[i]
		s0 -= 0.5 * d0 * d0 / av[i]
		s1 -= 0.5 * d1 * d1 / bv[i]
	}
	return s0, s1
}

func logSumExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	// Exact prune: when b-a <= -38 the correction term is at most
	// log1p(exp(-38)) <= exp(-38) < 3.2e-17, and when also |a| >= 1 that is
	// below half the spacing of the doubles around a (5.55e-17 at the
	// tightest: a = -1, whose neighbour toward zero is 2^-53 away), so
	// a + log1p(exp(b-a)) rounds to a — bit for bit what the full
	// expression returns. NaN fails both tests and |a| < 1 the second; they
	// take the full expression. +Inf returns +Inf either way.
	if b-a <= -38 && (a >= 1 || a <= -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// FitGMM fits a k-component mixture with k-means initialization followed
// by EM iterations. It degrades gracefully: if the data cannot support k
// components the result may contain fewer effective components.
func FitGMM(samples [][]float64, k, emIters int, rng *rand.Rand) (*GMM, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("hmm: cannot fit GMM to zero samples")
	}
	if k <= 0 {
		return nil, fmt.Errorf("hmm: component count %d must be positive", k)
	}
	if k > len(samples) {
		k = len(samples)
	}
	d := len(samples[0])
	// k-means init: random distinct seeds, a few Lloyd iterations.
	centers := make([][]float64, k)
	perm := rng.Perm(len(samples))
	for i := 0; i < k; i++ {
		c := make([]float64, d)
		copy(c, samples[perm[i]])
		centers[i] = c
	}
	assign := make([]int, len(samples))
	for iter := 0; iter < 5; iter++ {
		for si, s := range samples {
			best, bestDist := 0, math.Inf(1)
			for ci, c := range centers {
				var dist float64
				for j := range s {
					diff := s[j] - c[j]
					dist += diff * diff
				}
				if dist < bestDist {
					best, bestDist = ci, dist
				}
			}
			assign[si] = best
		}
		counts := make([]int, k)
		for i := range centers {
			for j := range centers[i] {
				centers[i][j] = 0
			}
		}
		for si, s := range samples {
			c := assign[si]
			counts[c]++
			for j, v := range s {
				centers[c][j] += v
			}
		}
		for i := range centers {
			if counts[i] == 0 {
				// Reseed dead center.
				copy(centers[i], samples[rng.Intn(len(samples))])
				continue
			}
			for j := range centers[i] {
				centers[i][j] /= float64(counts[i])
			}
		}
	}
	// Initialize mixture from k-means clusters.
	gmm := &GMM{Weights: make([]float64, k), Components: make([]*Gaussian, k)}
	for c := 0; c < k; c++ {
		var members [][]float64
		for si, s := range samples {
			if assign[si] == c {
				members = append(members, s)
			}
		}
		if len(members) == 0 {
			members = samples[:1]
		}
		g, err := FitGaussian(members)
		if err != nil {
			return nil, err
		}
		gmm.Components[c] = g
		gmm.Weights[c] = float64(len(members)) / float64(len(samples))
	}
	// EM refinement.
	for iter := 0; iter < emIters; iter++ {
		resp := make([][]float64, len(samples)) // responsibilities
		for si, s := range samples {
			r := make([]float64, k)
			total := math.Inf(-1)
			for c := 0; c < k; c++ {
				if gmm.Weights[c] <= 0 {
					r[c] = math.Inf(-1)
					continue
				}
				r[c] = math.Log(gmm.Weights[c]) + gmm.Components[c].LogProb(s)
				total = logSumExp(total, r[c])
			}
			for c := 0; c < k; c++ {
				if math.IsInf(r[c], -1) {
					r[c] = 0
				} else {
					r[c] = math.Exp(r[c] - total)
				}
			}
			resp[si] = r
		}
		for c := 0; c < k; c++ {
			var nc float64
			mean := make([]float64, d)
			for si, s := range samples {
				w := resp[si][c]
				nc += w
				for j, v := range s {
					mean[j] += w * v
				}
			}
			if nc < 1e-6 {
				gmm.Weights[c] = 0
				continue
			}
			for j := range mean {
				mean[j] /= nc
			}
			variance := make([]float64, d)
			for si, s := range samples {
				w := resp[si][c]
				for j, v := range s {
					diff := v - mean[j]
					variance[j] += w * diff * diff
				}
			}
			for j := range variance {
				variance[j] /= nc
			}
			g, err := NewGaussian(mean, variance)
			if err != nil {
				return nil, err
			}
			gmm.Components[c] = g
			gmm.Weights[c] = nc / float64(len(samples))
		}
	}
	return NewGMM(gmm.Weights, gmm.Components)
}
