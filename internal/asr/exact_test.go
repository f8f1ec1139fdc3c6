package asr

import (
	"reflect"
	"testing"

	"mvpears/internal/dsp"
	"mvpears/internal/phoneme"
	"mvpears/internal/speech"
)

// Frozen copies of the per-engine loops that ran before the energy sums
// and lexicon matches were shared (tailWork): sharing must not change one
// gated label, one candidate distance or one transcription.

func refApplyEnergyGate(labels []int, samples []float64, frameLen, hop int, ratio float64) []int {
	var total float64
	for _, v := range samples {
		total += v * v
	}
	clipRMS := total / float64(len(samples))
	threshold := ratio * ratio * clipRMS
	sil := phoneme.SilIndex()
	out := make([]int, len(labels))
	copy(out, labels)
	for f := range labels {
		start := f * hop
		if start >= len(samples) {
			out[f] = sil
			continue
		}
		end := start + frameLen
		if end > len(samples) {
			end = len(samples)
		}
		var e float64
		for _, v := range samples[start:end] {
			e += v * v
		}
		if e/float64(end-start) < threshold {
			out[f] = sil
		}
	}
	return out
}

func refWindowGate(labels []int, firstFrame, frameLen, hop int, samples []float64, a, b int) []int {
	var total float64
	for _, v := range samples[a:b] {
		total += v * v
	}
	windowRMS := total / float64(b-a)
	threshold := energyGateRatio * energyGateRatio * windowRMS
	sil := phoneme.SilIndex()
	gated := make([]int, len(labels))
	copy(gated, labels)
	for k := range gated {
		start := (firstFrame + k) * hop
		if start >= len(samples) {
			gated[k] = sil
			continue
		}
		end := start + frameLen
		if end > len(samples) {
			end = len(samples)
		}
		var e float64
		for _, v := range samples[start:end] {
			e += v * v
		}
		if e/float64(end-start) < threshold {
			gated[k] = sil
		}
	}
	return gated
}

func refTopCandidates(d *Decoder, seg []int) []candidate {
	k := min(d.TopK, len(d.words))
	var top []candidate
	for i, w := range d.words {
		dist := phoneme.EditDistance(seg, d.pronIDs[i])
		nd := float64(dist) / float64(max(len(seg), len(d.pronIDs[i])))
		if len(top) == k && nd >= top[k-1].dist {
			continue
		}
		pos := len(top)
		for pos > 0 && nd < top[pos-1].dist {
			pos--
		}
		if len(top) < k {
			top = append(top, candidate{})
		}
		copy(top[pos+1:], top[pos:len(top)-1])
		top[pos] = candidate{word: w, dist: nd}
	}
	return top
}

func equalLabels(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: frame %d gated to %d, reference %d", what, i, got[i], want[i])
		}
	}
}

func exactCorpus(t testing.TB, rate, n int) []speech.Utterance {
	t.Helper()
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(rate), n, 909)
	if err != nil {
		t.Fatal(err)
	}
	return utts
}

// TestSharedEnergyGateMatchesPerEngine gates every roster engine's labels
// through ONE tailWork per clip — plus a second frame geometry whose last
// frames are partial — and expects the labels a private pass per engine
// produced; then replays the clip as a growing stream, where a frame is
// cached only once the signal covers it.
func TestSharedEnergyGateMatchesPerEngine(t *testing.T) {
	set := testEngines(t)
	type geom struct{ frameLen, hop int }
	engines := []FrameLabeler{set.DS0, set.DS1, set.GCS, set.AT}
	var geoms []geom
	for _, m := range []*dsp.MFCC{set.DS0.MFCC, set.DS1.MFCC, set.GCS.MFCC, set.AT.MFCC} {
		geoms = append(geoms, geom{m.Config().FrameLen, m.Config().Hop})
	}
	for _, u := range exactCorpus(t, set.SampleRate, 6) {
		samples := u.Clip.Samples
		labels := make([][]int, len(engines))
		for i, e := range engines {
			l, err := e.FrameLabels(u.Clip)
			if err != nil {
				t.Fatal(err)
			}
			labels[i] = l
		}
		var shared tailWork
		for i := range engines {
			got := shared.gate(labels[i], 0, samples, 0, len(samples), geoms[i].frameLen, geoms[i].hop, energyGateRatio)
			equalLabels(t, "whole clip", got, refApplyEnergyGate(labels[i], samples, geoms[i].frameLen, geoms[i].hop, energyGateRatio))
		}
		odd := geom{200, 72}
		oddLabels := make([]int, (len(samples)+odd.hop-1)/odd.hop+2) // two frames start past the end
		for i := range oddLabels {
			oddLabels[i] = 1 + i%7
		}
		equalLabels(t, "second geometry",
			shared.gate(oddLabels, 0, samples, 0, len(samples), odd.frameLen, odd.hop, energyGateRatio),
			refApplyEnergyGate(oddLabels, samples, odd.frameLen, odd.hop, energyGateRatio))
		equalLabels(t, "exported form",
			ApplyEnergyGate(labels[0], samples, geoms[0].frameLen, geoms[0].hop, 0.1),
			refApplyEnergyGate(labels[0], samples, geoms[0].frameLen, geoms[0].hop, 0.1))

		// Streamed: the signal grows by 700 samples a step (no multiple of
		// a hop), and every step gates the newest 1 s window for every
		// geometry from the session's single tailWork.
		var sess tailWork
		for n := 700; ; n += 700 {
			n = min(n, len(samples))
			have := samples[:n]
			a := max(0, n-set.SampleRate)
			for i, g := range append(geoms, odd) {
				all := oddLabels
				if i < len(labels) {
					all = labels[i]
				}
				first, end := windowFrames(a, n, g.hop, min(len(all), (n+g.hop-1)/g.hop))
				if first >= end {
					continue
				}
				got := sess.gate(all[first:end], first, have, a, n, g.frameLen, g.hop, energyGateRatio)
				equalLabels(t, "window", got, refWindowGate(all[first:end], first, g.frameLen, g.hop, have, a, n))
			}
			if n == len(samples) {
				break
			}
		}
		for i := range engines {
			got := sess.gate(labels[i], 0, samples, 0, len(samples), geoms[i].frameLen, geoms[i].hop, energyGateRatio)
			equalLabels(t, "stream final", got, refApplyEnergyGate(labels[i], samples, geoms[i].frameLen, geoms[i].hop, energyGateRatio))
		}
	}
}

// TestDecodeMemoMatchesFresh decodes a corpus through one long-lived
// tailWork (every engine, every clip) and expects the transcriptions of
// memo-free decoding; every segment's remembered candidates must equal
// the frozen full-lexicon scan, on the miss and on the hit.
func TestDecodeMemoMatchesFresh(t *testing.T) {
	set := testEngines(t)
	dec := set.DS0.Dec
	var shared tailWork
	segments, hits := 0, 0
	for _, u := range exactCorpus(t, set.SampleRate, 12) {
		for _, e := range []FrameLabeler{set.DS0, set.DS1, set.GCS, set.AT, set.KLD} {
			labels, err := e.FrameLabels(u.Clip)
			if err != nil {
				t.Fatal(err)
			}
			labels = ApplyEnergyGate(labels, u.Clip.Samples, 256, 128, energyGateRatio)
			for _, seg := range dec.segments(SmoothLabels(labels)) {
				want := refTopCandidates(dec, seg)
				before := len(shared.top)
				for pass := 0; pass < 2; pass++ {
					got := dec.topCandidates(seg, &shared)
					if len(got) != len(want) {
						t.Fatalf("segment %v: %d candidates, reference %d", seg, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("segment %v candidate %d: %+v, reference %+v", seg, i, got[i], want[i])
						}
					}
				}
				segments++
				if len(shared.top) == before {
					hits++
				}
			}
			want, err := dec.Decode(labels)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.decode(labels, &shared)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("memoized decode %q, fresh decode %q", got, want)
			}
		}
	}
	if hits == 0 || hits == segments {
		t.Fatalf("%d of %d segments were memo hits: the corpus must exercise both paths", hits, segments)
	}
	// Ids outside a byte and a second decoder must not collide.
	other, err := NewDecoder(testLM(t), 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := dec.topCandidates([]int{3, 260}, &shared)
	b := dec.topCandidates([]int{3, 4}, &shared)
	if len(other.topCandidates([]int{3, 4}, &shared)) != 3 || len(b) != 5 {
		t.Fatal("two decoders shared one memo entry")
	}
	for i, c := range refTopCandidates(dec, []int{3, 260}) {
		if a[i] != c {
			t.Fatalf("out-of-byte id: candidate %d %+v, reference %+v", i, a[i], c)
		}
	}
}

// TestRestoredHMMKeepsArtifactAndScores: the log mixture weights and the
// transposed transition table are derived in the hmm constructors that
// restoreHMM goes through, so the snapshot (what the artifact and the
// model fingerprint are made of) is unchanged by a round trip, and the
// restored model scores bit for bit like the trained one.
func TestRestoredHMMKeepsArtifactAndScores(t *testing.T) {
	set := testEngines(t)
	snap := snapshotHMM(set.AT.Model)
	restored, err := restoreHMM(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshotHMM(restored), snap) {
		t.Fatal("snapshot changed across restore")
	}
	for _, u := range exactCorpus(t, set.SampleRate, 3) {
		feats, err := set.AT.MFCC.Extract(u.Clip.Samples)
		if err != nil {
			t.Fatal(err)
		}
		wantPath, wantScore, err := set.AT.Model.Viterbi(feats)
		if err != nil {
			t.Fatal(err)
		}
		path, score, err := restored.Viterbi(feats)
		if err != nil {
			t.Fatal(err)
		}
		if score != wantScore || !reflect.DeepEqual(path, wantPath) {
			t.Fatalf("restored model: score %v, trained model %v (paths equal: %v)", score, wantScore, reflect.DeepEqual(path, wantPath))
		}
	}
}

// BenchmarkDecodeWindow times the post-acoustic half of one stream window
// on a warmed session: the four roster engines' provisional labels for
// the newest second of audio, gated and decoded to words.
func BenchmarkDecodeWindow(b *testing.B) {
	quickSetOnce.Do(func() { quickSet, quickSetErr = BuildEngines(QuickTrainConfig()) })
	if quickSetErr != nil {
		b.Fatal(quickSetErr)
	}
	set := quickSet
	clip := exactCorpus(b, set.SampleRate, 1)[0].Clip
	engines := []Recognizer{set.DS0, set.DS1, set.GCS, set.AT}
	es, err := NewEnsembleStream(engines, set.SampleRate)
	if err != nil {
		b.Fatal(err)
	}
	if err := es.Push(clip.Samples); err != nil {
		b.Fatal(err)
	}
	window, hop := set.SampleRate, set.SampleRate/4
	pos := window
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for e := range engines {
			if _, err := es.WindowText(e, pos-window, pos); err != nil {
				b.Fatal(err)
			}
		}
		if pos += hop; pos > es.Total() {
			pos = window
		}
	}
}
