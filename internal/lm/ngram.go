// Package lm implements a word-level n-gram language model with add-k
// smoothing. Every ASR engine uses an instance (trained on its own corpus
// sample) for the paper's "language generation" stage: rescoring candidate
// words during lexicon decoding.
package lm

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"
)

const (
	// BOS and EOS are the sentence boundary tokens.
	BOS = "<s>"
	EOS = "</s>"
	// UNK is the unknown-word token.
	UNK = "<unk>"
)

// Model is an n-gram language model with add-k smoothing.
type Model struct {
	Order  int
	K      float64 // additive smoothing constant
	Vocab  map[string]bool
	counts map[string]float64 // n-gram counts keyed by joined context+word
	ctx    map[string]float64 // context counts
}

// New creates an untrained model of the given order (2 = bigram).
func New(order int, k float64) (*Model, error) {
	if order < 1 || order > 4 {
		return nil, fmt.Errorf("lm: order %d out of supported range [1,4]", order)
	}
	if k <= 0 {
		k = 0.1
	}
	return &Model{
		Order:  order,
		K:      k,
		Vocab:  make(map[string]bool),
		counts: make(map[string]float64),
		ctx:    make(map[string]float64),
	}, nil
}

// Train accumulates counts from tokenized sentences.
func (m *Model) Train(sentences [][]string) {
	for _, sent := range sentences {
		padded := make([]string, 0, len(sent)+2*(m.Order-1))
		for i := 0; i < m.Order-1; i++ {
			padded = append(padded, BOS)
		}
		for _, w := range sent {
			w = strings.ToLower(w)
			m.Vocab[w] = true
			padded = append(padded, w)
		}
		padded = append(padded, EOS)
		for i := m.Order - 1; i < len(padded); i++ {
			context := strings.Join(padded[i-m.Order+1:i], " ")
			m.counts[context+"\x00"+padded[i]]++
			m.ctx[context]++
		}
	}
}

// vocabSize returns |V| including EOS and UNK.
func (m *Model) vocabSize() float64 {
	return float64(len(m.Vocab) + 2)
}

// LogProb returns the add-k smoothed log probability of word following the
// context (the last Order-1 tokens of history are used). The two table
// keys are built in one stack buffer: rescoring calls this for every
// candidate of every decoded segment.
func (m *Model) LogProb(history []string, word string) float64 {
	var buf [96]byte
	key := buf[:0]
	need := m.Order - 1
	for i := len(history); i < need; i++ {
		key = append(append(key, BOS...), ' ')
	}
	for _, t := range history[max(0, len(history)-need):] {
		key = append(appendLower(key, t), ' ')
	}
	if need > 0 {
		key = key[:len(key)-1]
	}
	den := m.ctx[string(key)] + m.K*m.vocabSize()
	key = append(key, 0)
	n := len(key)
	key = appendLower(key, word)
	if w := key[n:]; !m.Vocab[string(w)] && string(w) != EOS {
		key = append(key[:n], UNK...)
	}
	num := m.counts[string(key)] + m.K
	return math.Log(num / den)
}

// appendLower appends strings.ToLower(s), which is s itself unless a byte
// of it is an upper-case letter or starts a multi-byte rune.
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' {
			return append(dst, strings.ToLower(s)...)
		}
	}
	return append(dst, s...)
}

// SentenceLogProb scores a full tokenized sentence including the EOS
// transition.
func (m *Model) SentenceLogProb(sent []string) float64 {
	var total float64
	history := make([]string, 0, len(sent))
	for _, w := range sent {
		total += m.LogProb(history, w)
		history = append(history, strings.ToLower(w))
	}
	total += m.LogProb(history, EOS)
	return total
}

// Perplexity returns the per-token perplexity of the sentences.
func (m *Model) Perplexity(sentences [][]string) float64 {
	var logSum float64
	var tokens int
	for _, s := range sentences {
		logSum += m.SentenceLogProb(s)
		tokens += len(s) + 1 // EOS
	}
	if tokens == 0 {
		return math.Inf(1)
	}
	return math.Exp(-logSum / float64(tokens))
}

// Counts returns a copy of the n-gram count table (for persistence).
func (m *Model) Counts() map[string]float64 {
	out := make(map[string]float64, len(m.counts))
	for k, v := range m.counts {
		out[k] = v
	}
	return out
}

// ContextCounts returns a copy of the context count table (for
// persistence).
func (m *Model) ContextCounts() map[string]float64 {
	out := make(map[string]float64, len(m.ctx))
	for k, v := range m.ctx {
		out[k] = v
	}
	return out
}

// Restore replaces the model's state with previously exported vocabulary
// and count tables (the inverse of Counts/ContextCounts).
func (m *Model) Restore(vocab []string, counts, ctx map[string]float64) {
	m.Vocab = make(map[string]bool, len(vocab))
	for _, w := range vocab {
		m.Vocab[w] = true
	}
	m.counts = make(map[string]float64, len(counts))
	for k, v := range counts {
		m.counts[k] = v
	}
	m.ctx = make(map[string]float64, len(ctx))
	for k, v := range ctx {
		m.ctx[k] = v
	}
}

// Candidate is a scored decoding hypothesis.
type Candidate struct {
	Word  string
	Score float64 // acoustic (or other upstream) log score
}

// Rescore combines each candidate's upstream score with the language-model
// log probability (weighted by lmWeight) and returns candidates sorted
// best-first.
func (m *Model) Rescore(history []string, cands []Candidate, lmWeight float64) []Candidate {
	out := make([]Candidate, len(cands))
	copy(out, cands)
	for i := range out {
		out[i].Score += lmWeight * m.LogProb(history, out[i].Word)
	}
	// A stable insertion sort: the handful of candidates a lexicon scan
	// keeps does not pay for sort.SliceStable's reflection swapper.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Score > out[j-1].Score; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
