package cluster

import (
	"bytes"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

// FuzzWireCodec throws arbitrary bytes at every decode path of the peer
// protocol, framed by ReadFrame as on a live connection. Peers are
// trusted for content but not well-formedness, so no input may panic or
// over-allocate. A request or error that decodes must survive a decode ->
// encode -> decode round trip unchanged. A verdict that decodes must be
// canonical, because the requester caches a peer's record as it came: its
// record re-encodes to the same bytes from the parsed Detection, and the
// payload re-encodes to the input byte for byte. Wired into `make
// fuzz-smoke`.
func FuzzWireCodec(f *testing.F) {
	// Seed with valid frames of each type so the fuzzer starts from the
	// interesting part of the input space, plus raw well-framed types the
	// protocol does not define (1 and 4, retired; 9, never assigned),
	// which the header must pass through for the receiver to decline.
	f.Add([]byte{'M', 'V', wireVersion, 1, 3, 0, 0, 0, 2, 'f', 'p'})
	f.Add([]byte{'M', 'V', wireVersion, 4, 0, 0, 0, 0})
	f.Add([]byte{'M', 'V', wireVersion, 9, 1, 0, 0, 0, 0xFF})
	f.Add(AppendFrame(nil, MsgDetect, AppendDetect(nil, "fp:00ff", 16000, []byte{1, 2, 3, 4}, obs.TraceContext{})))
	f.Add(AppendFrame(nil, MsgDetect, AppendDetect(nil, "fp:00ff", 16000, []byte{1, 2, 3, 4}, obs.TraceContext{TraceID: "req-2", Sampled: true})))
	f.Add(AppendFrame(nil, MsgErr, AppendErr(nil, "busy")))
	det := &mvpears.Detection{
		Adversarial:    true,
		Scores:         []float64{0.1, 0.9},
		Transcriptions: map[string]string{"target": "go", "aux": "no"},
		Timing:         mvpears.DetectionTiming{Recognition: time.Millisecond},
		Cascade: &mvpears.CascadeDecision{
			ShortCircuit: true,
			EnginesRun:   []string{"aux"},
			Margin:       0.8, FirstScore: 0.9,
			Imputed: []bool{true, false},
		},
	}
	f.Add(AppendFrame(nil, MsgVerdict, verdictOf(det, true, nil)))
	// The nil-versus-empty cases the cache record keeps apart.
	for _, d := range []*mvpears.Detection{
		{},
		{Scores: []float64{}, Transcriptions: map[string]string{}},
		{Cascade: &mvpears.CascadeDecision{EnginesRun: []string{}, EnginesSkipped: []string{}, Imputed: []bool{}}},
		{Transcriptions: map[string]string{"DS0": "a"}, Cascade: &mvpears.CascadeDecision{
			SampledFull: true, EnginesRun: []string{"GCS", "DS1"}, EnginesSkipped: []string{}, Imputed: []bool{false, false},
		}},
	} {
		f.Add(AppendFrame(nil, MsgVerdict, verdictOf(d, false, nil)))
	}
	f.Add(AppendFrame(nil, MsgVerdict, verdictOf(det, false, []obs.Span{
		{Stage: "transcribe", Engine: "DS1", Start: time.Millisecond, Dur: 2 * time.Millisecond},
		{Stage: "classify", Dur: 30 * time.Microsecond},
	})))

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, _, err := ReadFrame(bytes.NewReader(b), nil)
		if err != nil {
			return
		}
		switch typ {
		case MsgDetect:
			if key, rate, pcm, tc, err := ParseDetect(payload); err == nil {
				k2, r2, p2, tc2, err := ParseDetect(AppendDetect(nil, key, rate, pcm, tc))
				if err != nil || k2 != key || r2 != rate || !bytes.Equal(p2, pcm) || tc2 != tc {
					t.Fatalf("MsgDetect round trip failed: %v", err)
				}
			}
		case MsgErr:
			if msg, err := ParseErr(payload); err == nil {
				m2, err := ParseErr(AppendErr(nil, msg))
				if err != nil || m2 != msg {
					t.Fatalf("MsgErr round trip: (%q, %v), want %q", m2, err, msg)
				}
			}
		case MsgVerdict:
			// Bytes, not reflect.DeepEqual: fuzzed scores can be NaN,
			// which is never equal to itself but must still survive the
			// codec bit for bit.
			if rec, det, cached, spans, err := ParseVerdict(payload); err == nil {
				if again := AppendDetection(nil, det); string(again) != rec {
					t.Fatalf("record %x re-encodes to %x", rec, again)
				}
				if again := AppendVerdict(nil, rec, cached, spans); !bytes.Equal(again, payload) {
					t.Fatalf("verdict %x re-encodes to %x", payload, again)
				}
			}
		}
	})
}
