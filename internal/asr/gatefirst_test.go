package asr

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"mvpears/internal/audio"
	"mvpears/internal/dsp"
	"mvpears/internal/lm"
	"mvpears/internal/nn"
	"mvpears/internal/phoneme"
	"mvpears/internal/phonetic"
	"mvpears/internal/similarity"
)

// Frozen copies of the pipeline as it ran when the energy gate came after
// the acoustic models: every frame labelled, then gated, then smoothed,
// segmented and matched against the whole lexicon. Gate-first labelling,
// lazy stream labels, the bounded lexicon scan and the word memo must not
// change one transcription, window or score.

func refMLPLabels(t testing.TB, e *MLPEngine, feats [][]float64) []int {
	labels := make([]int, len(feats))
	stacked := make([]float64, (2*e.Context+1)*e.MFCC.Config().NumCoeffs)
	scratch := e.Net.NewScratch()
	for f := range feats {
		dsp.StackFrame(feats, f, e.Context, stacked)
		logits, err := e.Net.ForwardScratch(stacked, scratch)
		if err != nil {
			t.Fatal(err)
		}
		labels[f] = nn.Argmax(logits)
	}
	return labels
}

func refWeakLabels(t testing.TB, e *WeakEngine, feats [][]float64) []int {
	labels := make([]int, len(feats))
	q := make([]float64, e.MFCC.Config().NumCoeffs)
	for f, row := range feats {
		q = q[:len(row)]
		for i, v := range row {
			if e.Quant > 0 {
				q[i] = math.Round(v/e.Quant) * e.Quant
			} else {
				q[i] = v
			}
		}
		best, bestDist := -1, math.Inf(1)
		for ph, c := range e.Centroids {
			if c == nil {
				continue
			}
			var dist float64
			for i := range q {
				d := q[i] - c[i]
				dist += d * d
			}
			if dist < bestDist {
				best, bestDist = ph, dist
			}
		}
		if best < 0 {
			t.Fatal("weak engine without centroids")
		}
		labels[f] = best
	}
	return labels
}

// refRNNLabels runs the recurrence over exactly the frames given, deltas
// clamped to them: a stream's committed and provisional labels together.
func refRNNLabels(t testing.TB, e *RNNEngine, feats [][]float64) []int {
	h, nh, y := make([]float64, e.Net.Hidden), make([]float64, e.Net.Hidden), make([]float64, e.Net.Out)
	in := make([]float64, 2*e.MFCC.Config().NumCoeffs)
	labels := make([]int, len(feats))
	for f := range feats {
		x := feats[f]
		if e.UseDeltas {
			deltaRow(feats, f, len(feats), in)
			x = in
		}
		if err := e.Net.StepInto(x, h, nh, y); err != nil {
			t.Fatal(err)
		}
		h, nh = nh, h
		labels[f] = nn.Argmax(y)
	}
	return labels
}

// refLabels labels the given frames with no gate, one engine alone.
func refLabels(t testing.TB, e Recognizer, feats [][]float64) []int {
	switch e := e.(type) {
	case *MLPEngine:
		return refMLPLabels(t, e, feats)
	case *WeakEngine:
		return refWeakLabels(t, e, feats)
	case *RNNEngine:
		return refRNNLabels(t, e, feats)
	case *GMMEngine:
		path, _, err := e.Model.Viterbi(feats)
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	t.Fatalf("no reference labeller for %T", e)
	return nil
}

func refSmooth(labels []int) []int {
	out := make([]int, len(labels))
	copy(out, labels)
	for i := 1; i < len(labels)-1; i++ {
		if labels[i-1] == labels[i+1] && labels[i] != labels[i-1] {
			out[i] = labels[i-1]
		}
	}
	return out
}

func refSegments(d *Decoder, labels []int) [][]int {
	sil := phoneme.SilIndex()
	minSil := d.MinSilFrames
	if minSil <= 0 {
		minSil = 3
	}
	var segs [][]int
	var cur []int
	var curFrames, silRun int
	flush := func() {
		if curFrames >= d.MinSegFrames && len(cur) > 0 {
			segs = append(segs, cur)
		}
		cur = nil
		curFrames = 0
	}
	for _, l := range labels {
		if l == sil {
			silRun++
			if silRun >= minSil {
				flush()
			}
			continue
		}
		silRun = 0
		curFrames++
		if len(cur) == 0 || cur[len(cur)-1] != l {
			cur = append(cur, l)
		}
	}
	flush()
	return segs
}

func refDecode(d *Decoder, labels []int) string {
	var words, history []string
	for _, seg := range refSegments(d, refSmooth(labels)) {
		cands := refTopCandidates(d, seg)
		if len(cands) == 0 {
			continue
		}
		lmCands := make([]lm.Candidate, len(cands))
		for i, c := range cands {
			lmCands[i] = lm.Candidate{Word: c.word, Score: -4 * c.dist}
		}
		best := d.LM.Rescore(history, lmCands, d.LMWeight)[0].Word
		words = append(words, best)
		history = append(history, best)
	}
	return strings.Join(words, " ")
}

func decoderOf(e Recognizer) *Decoder {
	switch e := e.(type) {
	case *MLPEngine:
		return e.Dec
	case *WeakEngine:
		return e.Dec
	case *RNNEngine:
		return e.Dec
	case *GMMEngine:
		return e.Dec
	}
	return nil
}

// refTranscribe is the label-then-gate order: every frame labelled, the
// whole-clip gate over the labels, the unbounded decode.
func refTranscribe(t testing.TB, e Recognizer, clip *audio.Clip) (text string, labels []int) {
	m, _ := frontEndOf(e)
	feats, err := m.Extract(clip.Samples)
	if err != nil {
		t.Fatal(err)
	}
	labels = refLabels(t, e, feats)
	mc := m.Config()
	return refDecode(decoderOf(e), refApplyEnergyGate(labels, clip.Samples, mc.FrameLen, mc.Hop, energyGateRatio)), labels
}

// craftAE perturbs host towards the frame labels DS0 gives other, by
// signed-gradient steps inside an eps ball: audio shaped like the paper's
// white-box AEs (speech plus structured noise, also in the pauses), which
// is what the gate sees differently from benign speech.
func craftAE(t testing.TB, e *MLPEngine, host, other *audio.Clip, steps int, eps float64) *audio.Clip {
	src, err := e.FrameLabels(other)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, e.NumFrames(len(host.Samples)))
	for f := range target {
		target[f] = src[f*len(src)/len(target)]
	}
	ae := host.Clone()
	for s := 0; s < steps; s++ {
		_, grad, err := e.TargetLoss(ae, target)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range grad {
			v := ae.Samples[i]
			switch {
			case g > 0:
				v -= eps / 4
			case g < 0:
				v += eps / 4
			}
			ae.Samples[i] = max(-1, min(1, max(host.Samples[i]-eps, min(host.Samples[i]+eps, v))))
		}
	}
	return ae
}

// exactClips is the corpus of the gate-first tests: benign utterances,
// crafted AEs, and the gate's edge cases.
func exactClips(t testing.TB, set *EngineSet) []*audio.Clip {
	utts := exactCorpus(t, set.SampleRate, 10)
	var clips []*audio.Clip
	for _, u := range utts {
		clips = append(clips, u.Clip)
	}
	for i := 0; i < 8; i++ {
		clips = append(clips, craftAE(t, set.DS0, utts[i].Clip, utts[(i+3)%len(utts)].Clip, 6, 0.02))
	}
	silent := audio.NewClip(set.SampleRate, 3000)
	// A last frame that is partial for every roster geometry, ending in
	// speech so that the partial frame's energy decides its label.
	partial := utts[0].Clip.Clone()
	partial.Samples = partial.Samples[:len(partial.Samples)/2+37]
	clipped := utts[1].Clip.Clone()
	for i, v := range clipped.Samples {
		clipped.Samples[i] = max(-1, min(1, 40*v))
	}
	return append(clips, silent, partial, clipped)
}

// TestGateFirstExact: with the silence mask computed before the acoustic
// models and handed to them, every engine's Transcribe and
// TranscribeWithCache (alone and over one shared cache) equals the frozen
// label-then-gate order, and the public FrameLabels stays ungated.
func TestGateFirstExact(t *testing.T) {
	set := testEngines(t)
	engines := append(roster(set), set.KLD)
	frames, masked := 0, 0
	for ci, clip := range exactClips(t, set) {
		shared := NewFeatureCache(clip.Samples)
		out := make([]string, len(engines))
		if err := TranscribeInto(context.Background(), engines, clip, shared, true, out); err != nil {
			t.Fatal(err)
		}
		for i, e := range engines {
			want, labels := refTranscribe(t, e, clip)
			got, err := e.Transcribe(clip)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("clip %d %s: Transcribe %q, label-then-gate %q", ci, e.Name(), got, want)
			}
			if out[i] != want {
				t.Fatalf("clip %d %s: shared cache %q, label-then-gate %q", ci, e.Name(), out[i], want)
			}
			public, err := e.(FrameLabeler).FrameLabels(clip)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(public, labels) {
				t.Fatalf("clip %d %s: FrameLabels is not the ungated labelling", ci, e.Name())
			}
			if e == Recognizer(set.DS0) {
				for _, s := range clipSilence(clip, len(labels), set.DS0.MFCC, nil) {
					frames++
					if s {
						masked++
					}
				}
			}
		}
	}
	if masked*10 < frames || masked*2 > frames {
		t.Fatalf("the gate silences %d of %d DS0 frames: the corpus must exercise both sides", masked, frames)
	}
	t.Logf("gate-first skips %d of %d DS0 forwards (%.1f%%)", masked, frames, 100*float64(masked)/float64(frames))
}

// eagerMLP is mlpStream as it was: every committed frame forwarded by the
// push that completed its context, provisional tails on demand.
type eagerMLP struct {
	e       *MLPEngine
	labels  []int
	stacked []float64
	scratch *nn.MLPScratch
}

func (s *eagerMLP) advance(t testing.TB, feats [][]float64, final bool) {
	n := len(feats)
	for f := len(s.labels); f < n; f++ {
		if !final && f+s.e.Context >= n {
			break
		}
		dsp.StackFrame(feats, f, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			t.Fatal(err)
		}
		s.labels = append(s.labels, nn.Argmax(logits))
	}
}

func (s *eagerMLP) labelsRange(t testing.TB, feats [][]float64, from, to int) []int {
	out := make([]int, 0, to-from)
	c := len(s.labels)
	for f := from; f < to && f < c; f++ {
		out = append(out, s.labels[f])
	}
	for f := max(from, c); f < to; f++ {
		dsp.StackFrame(feats, f, s.e.Context, s.stacked)
		logits, err := s.e.Net.ForwardScratch(s.stacked, s.scratch)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, nn.Argmax(logits))
	}
	return out
}

func defaultMethod(t testing.TB) similarity.Method {
	reg, err := similarity.NewRegistry(func(s string) string { return phonetic.Encode(phonetic.Metaphone, s) })
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Get(similarity.MethodPEJaroWinkler)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// streamAgainstEager feeds clip through a fresh EnsembleStream in the
// given chunks, evaluating the sliding window at every hop edge the way a
// session does, and compares every engine's window text and the window's
// score vector with the frozen eager stream: batch features cut to the
// frames that exist, eagerly committed MLP labels, labels of every other
// architecture recomputed over those frames, gate after labels, unbounded
// decode. From window stopAt on the windows are no longer read (a session
// that flagged and keeps listening); the finals must equal want, the
// batch transcriptions, either way.
func streamAgainstEager(t testing.TB, set *EngineSet, engines []Recognizer, clip *audio.Clip, chunks []int, stopAt int, want []string) {
	x := clip.Samples
	method := defaultMethod(t)
	es, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][][]float64, len(engines))
	eager := make([]*eagerMLP, len(engines))
	for i, e := range engines {
		m, _ := frontEndOf(e)
		if feats[i], err = m.Extract(x); err != nil {
			t.Fatal(err)
		}
		if mlp, ok := e.(*MLPEngine); ok {
			eager[i] = &eagerMLP{e: mlp, stacked: make([]float64, (2*mlp.Context+1)*m.Config().NumCoeffs), scratch: mlp.Net.NewScratch()}
		}
	}
	emitted := func(i, total int) int {
		m, _ := frontEndOf(engines[i])
		mc := m.Config()
		if total < mc.FrameLen {
			return 0
		}
		return (total-mc.FrameLen)/mc.Hop + 1
	}
	window, hop := set.SampleRate, set.SampleRate/4
	next, windows, total := window, 0, 0
	push := func(n int) {
		if err := es.Push(x[total : total+n]); err != nil {
			t.Fatal(err)
		}
		total += n
		for i := range engines {
			if eager[i] != nil {
				eager[i].advance(t, feats[i][:emitted(i, total)], false)
			}
		}
		for ; next <= total; next += hop {
			if windows++; windows > stopAt {
				continue
			}
			a := max(0, next-window)
			got, ref := make([]string, len(engines)), make([]string, len(engines))
			for i, e := range engines {
				if got[i], err = es.WindowText(i, a, next); err != nil {
					t.Fatal(err)
				}
				m, _ := frontEndOf(e)
				mc := m.Config()
				have := feats[i][:emitted(i, total)]
				first, end := windowFrames(a, next, mc.Hop, len(have))
				if first < end {
					var labels []int
					if eager[i] != nil {
						labels = eager[i].labelsRange(t, have, first, end)
					} else {
						labels = refLabels(t, e, have)[first:end]
					}
					ref[i] = refDecode(decoderOf(e), refWindowGate(labels, first, mc.FrameLen, mc.Hop, x[:total], a, next))
				}
				if got[i] != ref[i] {
					t.Fatalf("window %d [%d,%d) %s: %q, frozen eager stream %q", windows-1, a, next, e.Name(), got[i], ref[i])
				}
			}
			for i := 1; i < len(engines); i++ {
				g := method.Score(method.Encode(got[0]), method.Encode(got[i]))
				r := method.Score(method.Encode(ref[0]), method.Encode(ref[i]))
				if g != r {
					t.Fatalf("window %d score %d: %v, frozen eager stream %v", windows-1, i-1, g, r)
				}
			}
		}
	}
	for _, c := range chunks {
		push(min(c, len(x)-total))
	}
	push(len(x) - total)
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	for i, e := range engines {
		got, err := es.FinalText(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s (windows read: %d of %d): streamed %q, batch %q", e.Name(), min(stopAt, windows), windows, got, want[i])
		}
	}
}

func batchTexts(t testing.TB, engines []Recognizer, clip *audio.Clip) []string {
	out := make([]string, len(engines))
	if err := TranscribeInto(context.Background(), engines, clip, NewFeatureCache(clip.Samples), false, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLazyStreamLabelsExact: under seeded random chunking, with the
// stream's MLP labels computed on first ungated use, every window text,
// every score vector and the final equal the frozen eager stream — also
// for a session that stops reading windows at window k and keeps
// receiving audio, whose final pass forwards the backlog and honours its
// context while it does.
func TestLazyStreamLabelsExact(t *testing.T) {
	set := testEngines(t)
	engines := append(roster(set), set.KLD)
	rng := rand.New(rand.NewSource(77))
	clips := exactClips(t, set)
	// Three utterances back to back: pauses between phrases, 15 windows.
	long := clips[2].Clone()
	long.Samples = append(append(long.Samples, clips[3].Samples...), clips[12].Samples...)
	for ci, clip := range append([]*audio.Clip{long}, clips[:4]...) {
		want := batchTexts(t, engines, clip)
		for trial := 0; trial < 3; trial++ {
			var chunks []int
			for left := len(clip.Samples); left > 0; {
				c := 1 + rng.Intn([]int{40, 800, 5000}[rng.Intn(3)])
				chunks = append(chunks, c)
				left -= c
			}
			stopAt := math.MaxInt
			if trial == 2 || ci == 0 && trial == 1 {
				stopAt = rng.Intn(4)
			}
			streamAgainstEager(t, set, engines, clip, chunks, stopAt, want)
		}
	}

	// The backlog: nothing read before the final pass, so FinalText has
	// every ungated frame to forward, and must stop when told to.
	es, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.Push(long.Samples); err != nil {
		t.Fatal(err)
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := es.FinalText(cancelled, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("FinalText with a backlog under a cancelled context: %v, want context.Canceled", err)
	}
	expiring, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := es.FinalText(expiring, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FinalText with a backlog past its deadline: %v, want context.DeadlineExceeded", err)
	}
	want := batchTexts(t, engines, long)
	for i, e := range engines {
		got, err := es.FinalText(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s after an abandoned final pass: %q, batch %q", e.Name(), got, want[i])
		}
	}

	// Reset: a stream emptied after one session gives the next session
	// the windows and final of a fresh stream.
	es.Reset()
	if es.Total() != 0 {
		t.Fatalf("%d samples after Reset", es.Total())
	}
	fresh, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	clip := clips[5]
	window, hop := set.SampleRate, set.SampleRate/4
	for off, next := 0, window; off < len(clip.Samples); {
		n := min(1+rng.Intn(3000), len(clip.Samples)-off)
		for _, s := range []*EnsembleStream{es, fresh} {
			if err := s.Push(clip.Samples[off : off+n]); err != nil {
				t.Fatal(err)
			}
		}
		for off += n; next <= off; next += hop {
			for i, e := range engines {
				got, err := es.WindowText(i, max(0, next-window), next)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := fresh.WindowText(i, max(0, next-window), next)
				if err != nil {
					t.Fatal(err)
				}
				if got != ref {
					t.Fatalf("%s window ending at %d: reused stream %q, fresh stream %q", e.Name(), next, got, ref)
				}
			}
		}
	}
	if err := es.Finalize(); err != nil {
		t.Fatal(err)
	}
	want = batchTexts(t, engines, clip)
	for i, e := range engines {
		got, err := es.FinalText(context.Background(), i)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("%s on a reused stream: %q, batch %q", e.Name(), got, want[i])
		}
	}
}

// windowSegments runs clip through a stream's windows and returns the
// distinct (decoder, segment) pairs their decodes scanned the lexicon
// for, in a fixed order.
func windowSegments(t testing.TB, set *EngineSet, clips []*audio.Clip) (decs []*Decoder, segs [][]int) {
	engines := roster(set)
	window, hop := set.SampleRate, set.SampleRate/4
	for _, clip := range clips {
		es, err := NewEnsembleStream(engines, set.SampleRate)
		if err != nil {
			t.Fatal(err)
		}
		if err := es.Push(clip.Samples); err != nil {
			t.Fatal(err)
		}
		for pos := window; pos <= es.Total(); pos += hop {
			for i := range engines {
				if _, err := es.WindowText(i, pos-window, pos); err != nil {
					t.Fatal(err)
				}
			}
		}
		var keys []segKey
		for k := range es.tail.top {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b segKey) int { return strings.Compare(a.seg, b.seg) })
		for _, k := range keys {
			var seg []int
			for b := []byte(k.seg); len(b) > 0; {
				id, n := binary.Uvarint(b)
				seg, b = append(seg, int(id)), b[n:]
			}
			decs, segs = append(decs, k.dec), append(segs, seg)
		}
	}
	return decs, segs
}

func sameCandidates(t *testing.T, d *Decoder, seg []int, got []candidate) {
	t.Helper()
	want := refTopCandidates(d, seg)
	if len(got) != len(want) {
		t.Fatalf("segment %v: %d candidates, unbounded scan %d", seg, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("segment %v candidate %d: %+v, unbounded scan %+v", seg, i, got[i], want[i])
		}
	}
}

// TestTopCandidatesBoundsExact: the lower bounds skip only words the
// full dynamic program would have rejected — on random segments (empty,
// longer than any pronunciation, ids past the mask's 63 bits, negative and
// repeated ids) and on the segments real windows produce, where the bound
// and not luck must do the pruning.
func TestTopCandidatesBoundsExact(t *testing.T) {
	set := testEngines(t)
	rng := rand.New(rand.NewSource(3))
	small, err := NewDecoder(testLM(t), 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3000; trial++ {
		d := []*Decoder{set.DS0.Dec, set.AT.Dec, small}[trial%3]
		seg := make([]int, rng.Intn(d.maxPron+6))
		for i := range seg {
			switch rng.Intn(10) {
			case 0:
				seg[i] = 63 + rng.Intn(200)
			case 1:
				seg[i] = -1 - rng.Intn(3)
			case 2:
				seg[i] = seg[max(0, i-1)]
			default:
				seg[i] = rng.Intn(phoneme.Count())
			}
		}
		if trial%7 == 0 && len(d.words) > 0 { // a pronunciation, exactly or nearly
			seg = slices.Clone(d.pronIDs[rng.Intn(len(d.words))])
			if trial%2 == 0 && len(seg) > 1 {
				seg[rng.Intn(len(seg))] = rng.Intn(phoneme.Count())
			}
		}
		sameCandidates(t, d, seg, d.topCandidates(seg, new(tailWork)))
	}
	var clips []*audio.Clip
	for _, u := range exactCorpus(t, set.SampleRate, 6) {
		clips = append(clips, u.Clip)
	}
	decs, segs := windowSegments(t, set, clips)
	var w tailWork
	for i, seg := range segs {
		sameCandidates(t, decs[i], seg, decs[i].topCandidates(seg, &w))
	}
	words := len(decs[0].words)
	if len(segs) < 50 || w.dps*2 > len(segs)*words {
		t.Fatalf("%d dynamic programs for %d segments × %d words: the bounds must skip at least half", w.dps, len(segs), words)
	}
	t.Logf("%d window segments: %d of %d dynamic programs run (%.1f%% skipped)", len(segs), w.dps, len(segs)*words, 100-100*float64(w.dps)/float64(len(segs)*words))
}

// BenchmarkLexiconScanCold times one lexicon scan with nothing
// remembered: the distinct segments the windows of six utterances decode,
// each against a fresh tailWork.
func BenchmarkLexiconScanCold(b *testing.B) {
	set := testEngines(b)
	var clips []*audio.Clip
	for _, u := range exactCorpus(b, set.SampleRate, 6) {
		clips = append(clips, u.Clip)
	}
	decs, segs := windowSegments(b, set, clips)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w tailWork
		for j, seg := range segs {
			clear(w.top)
			decs[j].topCandidates(seg, &w)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(segs)), "ns/scan")
}
