package lm

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func trainCorpus() [][]string {
	sents := []string{
		"open the door",
		"open the window",
		"close the door",
		"the door is open",
		"the cat is small",
		"the dog is big",
		"i open the door",
		"you close the window",
	}
	out := make([][]string, len(sents))
	for i, s := range sents {
		out[i] = strings.Fields(s)
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0.1); err == nil {
		t.Fatal("expected error for order 0")
	}
	if _, err := New(5, 0.1); err == nil {
		t.Fatal("expected error for order 5")
	}
	m, err := New(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.K <= 0 {
		t.Fatal("smoothing constant must default positive")
	}
}

func TestBigramProbabilities(t *testing.T) {
	m, err := New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	// "the door" is frequent; "the zebra" unseen.
	seen := m.LogProb([]string{"the"}, "door")
	unseen := m.LogProb([]string{"the"}, "zebra")
	if seen <= unseen {
		t.Fatalf("seen bigram %g not above unseen %g", seen, unseen)
	}
	// Probabilities over the vocabulary + EOS + UNK must sum to ~1.
	var sum float64
	for w := range m.Vocab {
		sum += math.Exp(m.LogProb([]string{"the"}, w))
	}
	sum += math.Exp(m.LogProb([]string{"the"}, EOS))
	sum += math.Exp(m.LogProb([]string{"the"}, UNK))
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", sum)
	}
}

func TestCaseInsensitive(t *testing.T) {
	m, err := New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	a := m.LogProb([]string{"THE"}, "Door")
	b := m.LogProb([]string{"the"}, "door")
	if a != b {
		t.Fatalf("case sensitivity: %g vs %g", a, b)
	}
}

func TestShortHistoryPadding(t *testing.T) {
	m, err := New(3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	// Must not panic with empty history; BOS padding applies.
	lp := m.LogProb(nil, "open")
	if math.IsNaN(lp) || math.IsInf(lp, 0) {
		t.Fatalf("bad logprob %g", lp)
	}
	// Sentence-initial "open" and "the" both occur; both finite.
	lp2 := m.LogProb([]string{"i"}, "open")
	if math.IsNaN(lp2) {
		t.Fatal("NaN logprob")
	}
}

func TestSentenceLogProbOrdersSentences(t *testing.T) {
	m, err := New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	good := m.SentenceLogProb([]string{"open", "the", "door"})
	bad := m.SentenceLogProb([]string{"door", "open", "the"})
	if good <= bad {
		t.Fatalf("grammatical sentence %g not above scrambled %g", good, bad)
	}
}

func TestPerplexity(t *testing.T) {
	m, err := New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	corpus := trainCorpus()
	m.Train(corpus)
	ppl := m.Perplexity(corpus)
	if ppl <= 1 || ppl > 100 {
		t.Fatalf("train perplexity %g implausible", ppl)
	}
	// Unseen gibberish has higher perplexity.
	weird := [][]string{{"zebra", "quark", "flux"}}
	if m.Perplexity(weird) <= ppl {
		t.Fatal("gibberish perplexity not higher than train perplexity")
	}
	if !math.IsInf(m.Perplexity(nil), 1) {
		t.Fatal("empty corpus perplexity must be +Inf")
	}
}

func TestRescorePrefersLikelyWord(t *testing.T) {
	m, err := New(2, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	cands := []Candidate{
		{Word: "zebra", Score: -1.0}, // slightly better acoustic score
		{Word: "door", Score: -1.3},
	}
	out := m.Rescore([]string{"the"}, cands, 1.0)
	if out[0].Word != "door" {
		t.Fatalf("LM rescoring picked %q", out[0].Word)
	}
	// With zero LM weight the acoustic ranking stands.
	out = m.Rescore([]string{"the"}, cands, 0)
	if out[0].Word != "zebra" {
		t.Fatalf("zero-weight rescoring picked %q", out[0].Word)
	}
	// Input slice must not be mutated.
	if cands[0].Word != "zebra" || cands[0].Score != -1.0 {
		t.Fatal("Rescore mutated its input")
	}
}

func TestUnigramModel(t *testing.T) {
	m, err := New(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	m.Train(trainCorpus())
	// "the" is the most common token.
	if m.LogProb(nil, "the") <= m.LogProb(nil, "cat") {
		t.Fatal("unigram frequencies not learned")
	}
}

// oldLogProb and oldRescore are LogProb and Rescore as they were before
// the keys moved into a stack buffer and the sort lost its reflection
// swapper, frozen here as the reference.
func oldLogProb(m *Model, history []string, word string) float64 {
	word = strings.ToLower(word)
	if !m.Vocab[word] && word != EOS {
		word = UNK
	}
	ctxTokens := make([]string, 0, m.Order-1)
	need := m.Order - 1
	if len(history) >= need {
		ctxTokens = append(ctxTokens, history[len(history)-need:]...)
	} else {
		for i := 0; i < need-len(history); i++ {
			ctxTokens = append(ctxTokens, BOS)
		}
		ctxTokens = append(ctxTokens, history...)
	}
	for i, t := range ctxTokens {
		ctxTokens[i] = strings.ToLower(t)
	}
	context := strings.Join(ctxTokens, " ")
	num := m.counts[context+"\x00"+word] + m.K
	den := m.ctx[context] + m.K*m.vocabSize()
	return math.Log(num / den)
}

func oldRescore(m *Model, history []string, cands []Candidate, lmWeight float64) []Candidate {
	out := make([]Candidate, len(cands))
	copy(out, cands)
	for i := range out {
		out[i].Score += lmWeight * oldLogProb(m, history, out[i].Word)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// TestLogProbRescoreUnchanged compares the allocation-free LogProb and
// the insertion-sorted Rescore with the frozen originals, with == on
// every score and on the order, over random histories and candidate lists
// (mixed case, non-ASCII, unknown words, boundary tokens, tied scores) at
// every supported order.
func TestLogProbRescoreUnchanged(t *testing.T) {
	pool := []string{"open", "the", "door", "window", "close", "is", "cat", "i", "you",
		"Open", "THE", "dOOr", "zebra", "Zebra", "ÉCOLE", "straße", "İstanbul", "\xffbad", "",
		BOS, EOS, UNK, "a-very-long-token-that-does-not-fit-the-stack-buffer-" + strings.Repeat("x", 90)}
	rng := rand.New(rand.NewSource(41))
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	for order := 1; order <= 4; order++ {
		m, err := New(order, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		m.Train(trainCorpus())
		for trial := 0; trial < 2000; trial++ {
			history := pick(rng.Intn(6))
			word := pool[rng.Intn(len(pool))]
			if got, want := m.LogProb(history, word), oldLogProb(m, history, word); got != want {
				t.Fatalf("order %d: LogProb(%q, %q) = %v, frozen original %v", order, history, word, got, want)
			}
			cands := make([]Candidate, rng.Intn(7))
			for i, w := range pick(len(cands)) {
				// A few distinct scores, so ties are common and the
				// stable order is what is compared.
				cands[i] = Candidate{Word: w, Score: -float64(rng.Intn(3))}
			}
			weight := []float64{0, 0.3, 1}[rng.Intn(3)]
			got, want := m.Rescore(history, cands, weight), oldRescore(m, history, cands, weight)
			if len(got) != len(want) {
				t.Fatalf("order %d: Rescore returned %d candidates, frozen original %d", order, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order %d: Rescore(%q, %v)[%d] = %+v, frozen original %+v", order, history, cands, i, got[i], want[i])
				}
			}
		}
	}
	m, _ := New(2, 0.05)
	m.Train(trainCorpus())
	history := []string{"open", "the"}
	if n := testing.AllocsPerRun(100, func() { m.LogProb(history, "door") }); n != 0 {
		t.Fatalf("LogProb allocates %v times per call on lower-case input, want 0", n)
	}
}
