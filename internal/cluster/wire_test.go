package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello cluster")
	frame := AppendFrame(nil, MsgDetect, payload)
	// Two frames through one reader, reusing the buffer across them.
	var buf []byte
	r := bytes.NewReader(append(append([]byte(nil), frame...), AppendFrame(nil, MsgVerdict, nil)...))
	typ, got, buf, err := ReadFrame(r, buf)
	if err != nil || typ != MsgDetect || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrame #1 = (%d, %q, %v), want (%d, %q)", typ, got, err, MsgDetect, payload)
	}
	typ, got, _, err = ReadFrame(r, buf)
	if err != nil || typ != MsgVerdict || len(got) != 0 {
		t.Fatalf("ReadFrame #2 = (%d, %q, %v)", typ, got, err)
	}
}

func TestFrameMalformed(t *testing.T) {
	good := AppendFrame(nil, MsgDetect, []byte("k"))
	cases := map[string]struct {
		frame []byte
		want  error
	}{
		"short header": {good[:frameHeaderLen-1], io.ErrUnexpectedEOF},
		"bad magic":    {append([]byte{'X', 'V'}, good[2:]...), ErrBadFrame},
		"bad version":  {append([]byte{'M', 'V', 99}, good[3:]...), ErrBadFrame},
		"truncated":    {good[:len(good)-1], io.ErrUnexpectedEOF},
		"oversized":    {[]byte{'M', 'V', wireVersion, byte(MsgDetect), 0xFF, 0xFF, 0xFF, 0xFF}, ErrBadFrame},
	}
	for name, c := range cases {
		if _, _, _, err := ReadFrame(bytes.NewReader(c.frame), nil); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

func TestGetDetectErrRoundTrip(t *testing.T) {
	key := "fp:abcd1234"
	sampled := obs.TraceContext{TraceID: "req-0042", Parent: "cluster_forward", Sampled: true}
	pcm := []byte{1, 2, 3, 4, 5, 6}
	for _, tc := range []obs.TraceContext{{}, sampled} {
		k, rate, p, tc2, err := ParseDetect(AppendDetect(nil, key, 16000, pcm, tc))
		if err != nil || k != key || rate != 16000 || !bytes.Equal(p, pcm) || tc2 != tc {
			t.Fatalf("ParseDetect = (%q, %d, %v, %+v, %v)", k, rate, p, tc2, err)
		}
	}
	if msg, err := ParseErr(AppendErr(nil, "busy")); err != nil || msg != "busy" {
		t.Fatalf("ParseErr = (%q, %v)", msg, err)
	}
	// A zero sample rate is structurally invalid.
	if _, _, _, _, err := ParseDetect(AppendDetect(nil, key, 0, pcm, obs.TraceContext{})); !errors.Is(err, ErrBadFrame) {
		t.Errorf("zero sample rate: err = %v, want ErrBadFrame", err)
	}
}

// TestWireV1BackCompat: payloads encoded without the optional trace /
// span tails — the untraced encoding; a Detect payload is byte-identical
// to a retired v1 one — must still decode, with a zero context and no
// spans; a version-1 frame header is rejected.
func TestWireV1BackCompat(t *testing.T) {
	key := "fp:old-peer"
	detectV1 := appendString(nil, key)
	detectV1 = binary.AppendUvarint(detectV1, 16000)
	detectV1 = appendBytes(detectV1, []byte{9, 8, 7})
	k, rate, pcm, tc, err := ParseDetect(detectV1)
	if err != nil || k != key || rate != 16000 || !bytes.Equal(pcm, []byte{9, 8, 7}) || tc != (obs.TraceContext{}) {
		t.Fatalf("v1 ParseDetect = (%q, %d, %v, %+v, %v)", k, rate, pcm, tc, err)
	}
	// A verdict with no span tail (an unsampled reply).
	det := &mvpears.Detection{Transcriptions: map[string]string{"target": "x"}}
	wire := verdictOf(det, true, nil)
	_, d2, cached, spans, err := ParseVerdict(wire)
	if err != nil || !cached || spans != nil {
		t.Fatalf("span-free verdict = (cached=%v, spans=%v, err=%v)", cached, spans, err)
	}
	if !reflect.DeepEqual(d2, det) {
		t.Fatalf("span-free verdict detection mismatch")
	}
	// But a v1-version frame header is no longer accepted.
	frame := AppendFrame(nil, MsgDetect, detectV1)
	frame[2] = 1
	if _, _, _, err := ReadFrame(bytes.NewReader(frame), nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("v1 frame: err = %v, want ErrBadFrame", err)
	}
}

// TestVerdictSpanTail: remote spans survive the verdict codec, clamped
// and with deterministic encoding.
func TestVerdictSpanTail(t *testing.T) {
	det := &mvpears.Detection{Transcriptions: map[string]string{"target": "x"}}
	spans := []obs.Span{
		{Stage: "transcribe", Engine: "DS1", Start: 2 * time.Millisecond, Dur: 5 * time.Millisecond},
		{Stage: "classify", Start: 8 * time.Millisecond, Dur: 10 * time.Microsecond},
	}
	wire := verdictOf(det, false, spans)
	_, _, _, got, err := ParseVerdict(wire)
	if err != nil {
		t.Fatalf("ParseVerdict: %v", err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("span tail mismatch:\n got %+v\nwant %+v", got, spans)
	}
	if again := verdictOf(det, false, spans); !bytes.Equal(wire, again) {
		t.Errorf("span encoding is not deterministic")
	}
	// Negative offsets (clock weirdness) clamp to zero rather than
	// corrupting the uvarint encoding.
	neg := verdictOf(det, false, []obs.Span{{Stage: "decode", Start: -time.Second, Dur: -time.Millisecond}})
	_, _, _, clamped, err := ParseVerdict(neg)
	if err != nil || len(clamped) != 1 || clamped[0].Start != 0 || clamped[0].Dur != 0 {
		t.Fatalf("negative span = (%+v, %v), want clamped zeros", clamped, err)
	}
}

// TestVerdictRoundTrip: a verdict survives the codec reflect.DeepEqual —
// nil and empty slices and maps told apart — with deterministic bytes,
// its record is the bytes AppendDetection writes, and nothing ParseVerdict
// returns changes when the payload's buffer is overwritten.
func TestVerdictRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		det    *mvpears.Detection
		cached bool
	}{
		{
			name: "full",
			det: &mvpears.Detection{
				Adversarial: true,
				Scores:      []float64{0.12, 0.9, math.Inf(1), 0},
				Transcriptions: map[string]string{
					"target": "open the door",
					"aux-a":  "open the floor",
					"aux-b":  "",
				},
				Timing: mvpears.DetectionTiming{
					Recognition: 123 * time.Millisecond,
					Similarity:  45 * time.Microsecond,
					Classify:    6 * time.Nanosecond,
				},
				Cascade: &mvpears.CascadeDecision{
					ShortCircuit:   true,
					SampledFull:    false,
					EnginesRun:     []string{"aux-a"},
					EnginesSkipped: []string{"aux-b"},
					Margin:         0.8,
					FirstScore:     0.93,
					Imputed:        []bool{false, true},
				},
			},
			cached: true,
		},
		{
			name: "minimal",
			det: &mvpears.Detection{
				Transcriptions: map[string]string{},
			},
			cached: false,
		},
		// The cache keeps this record too, so nil and empty stay apart.
		{name: "nil_everything", det: &mvpears.Detection{}},
		{name: "empty_everything", det: &mvpears.Detection{Scores: []float64{}, Transcriptions: map[string]string{}}},
		{
			name: "empty_cascade",
			det:  &mvpears.Detection{Cascade: &mvpears.CascadeDecision{EnginesRun: []string{}, EnginesSkipped: []string{}, Imputed: []bool{}}},
		},
		{
			name: "run_through_empty_skipped",
			det: &mvpears.Detection{
				Scores:         []float64{0.9, 0.2},
				Transcriptions: map[string]string{"DS0": "open", "DS1": "open", "GCS": "opens"},
				Timing:         mvpears.DetectionTiming{Recognition: 3 * time.Millisecond},
				Cascade: &mvpears.CascadeDecision{
					SampledFull: true, EnginesRun: []string{"GCS", "DS1"}, EnginesSkipped: []string{},
					Margin: 0.7343, FirstScore: 0.2, Imputed: []bool{false, false},
				},
			},
			cached: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := verdictOf(tc.det, tc.cached, nil)
			gotRec, got, cached, _, err := ParseVerdict(wire)
			if err != nil {
				t.Fatalf("ParseVerdict: %v", err)
			}
			// The payload sits in a frame buffer the next read refills.
			for i := range wire {
				wire[i] = 0xA5
			}
			wire = verdictOf(tc.det, tc.cached, nil)
			if cached != tc.cached {
				t.Errorf("cached = %v, want %v", cached, tc.cached)
			}
			if !reflect.DeepEqual(got, tc.det) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tc.det)
			}
			// The encoding must be deterministic in the content (engine
			// names sort), so two encodes of one verdict are identical.
			if again := verdictOf(tc.det, tc.cached, nil); !bytes.Equal(wire, again) {
				t.Errorf("encoding is not deterministic")
			}
			rec := AppendDetection(nil, tc.det)
			if !bytes.Equal(wire[1:], rec) {
				t.Errorf("verdict payload after the cached byte is not the Detection record")
			}
			if gotRec != string(rec) {
				t.Errorf("ParseVerdict's record = %x, want %x", gotRec, rec)
			}
			if got, err := ParseDetection(string(rec)); err != nil || !reflect.DeepEqual(got, tc.det) {
				t.Errorf("ParseDetection = (%+v, %v), want %+v", got, err, tc.det)
			}
		})
	}
}

// TestVerdictTruncations: every prefix of a valid verdict payload must
// decode to an error, never panic or a silently partial verdict — with
// one deliberate exception: the span tail is optional (untraced replies),
// so the single truncation that cuts it off exactly at its boundary
// decodes as a complete span-free verdict.
func TestVerdictTruncations(t *testing.T) {
	det := &mvpears.Detection{
		Adversarial:    true,
		Scores:         []float64{0.5, 0.25},
		Transcriptions: map[string]string{"target": "abc", "aux": "abd"},
		Timing:         mvpears.DetectionTiming{Recognition: time.Second},
		Cascade: &mvpears.CascadeDecision{
			EnginesRun: []string{"aux"},
			Margin:     0.8, FirstScore: 0.9, Imputed: []bool{true},
		},
	}
	wire := verdictOf(det, false, []obs.Span{
		{Stage: "transcribe", Engine: "aux", Start: time.Millisecond, Dur: time.Millisecond},
	})
	tailStart := len(verdictOf(det, false, nil))
	for i := 0; i < len(wire); i++ {
		_, _, _, spans, err := ParseVerdict(wire[:i])
		if err == nil && (i != tailStart || spans != nil) {
			t.Fatalf("ParseVerdict accepted a %d/%d-byte truncation", i, len(wire))
		}
	}
}

// verdictOf is the MsgVerdict payload of det, as an owner whose entry
// holds det's record sends it.
func verdictOf(det *mvpears.Detection, cached bool, spans []obs.Span) []byte {
	return AppendVerdict(nil, string(AppendDetection(nil, det)), cached, spans)
}

// TestVerdictRejectsNonCanonical: a payload that parses is the bytes its
// values encode to, so each way of writing a verdict that AppendVerdict
// never writes is refused.
func TestVerdictRejectsNonCanonical(t *testing.T) {
	timing := []byte{0, 0, 0}
	engines := func(names ...string) []byte {
		rec := []byte{0, 0, byte(len(names) + 1)} // flags, nil scores, count
		for _, n := range names {
			rec = appendString(appendString(rec, n), "x")
		}
		return append(rec, timing...)
	}
	imputed := verdictOf(&mvpears.Detection{Cascade: &mvpears.CascadeDecision{Imputed: []bool{true}}}, false, nil)
	imputed[len(imputed)-1] = 2
	cases := map[string][]byte{
		"unknown verdict flag":     {2, 0, 0, 0, 0, 0, 0},
		"unknown record flag":      {0, 1 << 4, 0, 0, 0, 0, 0},
		"cascade flag, no cascade": {0, cascadeShort, 0, 0, 0, 0, 0},
		"overlong count":           {0, 0, 0x80, 0, 0, 0, 0, 0},
		"overlong timing":          {0, 0, 0, 0, 0x80, 0, 0, 0},
		"engines out of order":     append([]byte{0}, engines("b", "a")...),
		"engine twice":             append([]byte{0}, engines("a", "a")...),
		"imputed byte 2":           imputed,
		"empty span tail":          {0, 0, 0, 0, 0, 0, 0, 0},
		"overlong span count":      {0, 0, 0, 0, 0, 0, 0, 0x81, 0, 1, 's', 0, 0, 0},
	}
	if _, _, _, _, err := ParseVerdict(append([]byte{0}, engines("a", "b")...)); err != nil {
		t.Fatalf("sorted engines refused: %v", err)
	}
	for name, payload := range cases {
		if _, _, _, _, err := ParseVerdict(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", name, err)
		}
	}
}
