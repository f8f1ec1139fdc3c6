package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// referenceLine is the ordinary access-log line as RequestLogger wrote it
// on log/slog before appendLine: the same attributes, through
// slog.NewJSONHandler.
func referenceLine(rec RequestRecord) []byte {
	attrs := []slog.Attr{
		slog.String("request_id", rec.RequestID),
		slog.String("route", rec.Route),
		slog.String("method", rec.Method),
		slog.Int("status", rec.Status),
		slog.Float64("duration_ms", durMS(rec.Duration)),
	}
	if rec.Verdict != "" {
		attrs = append(attrs,
			slog.String("verdict", rec.Verdict),
			slog.Bool("cached", rec.Cached),
			slog.Bool("collapsed", rec.Collapsed),
		)
		if rec.ShortCircuit {
			attrs = append(attrs, slog.Bool("short_circuit", true))
		}
		if rec.Remote {
			attrs = append(attrs, slog.Bool("remote", true))
		}
	}
	totals := map[string]time.Duration{}
	for _, sp := range rec.Trace.Spans() {
		if sp.Engine == "" && sp.Peer == "" {
			totals[sp.Stage] += sp.Dur
		}
	}
	var stageAttrs []any
	for _, stage := range loggedStages {
		if d, ok := totals[stage]; ok {
			stageAttrs = append(stageAttrs, slog.Float64(stage+"_ms", durMS(d)))
		}
	}
	if len(stageAttrs) > 0 {
		attrs = append(attrs, slog.Group("stages", stageAttrs...))
	}
	level := slog.LevelInfo
	if rec.Status >= 500 {
		level = slog.LevelError
	}
	var buf bytes.Buffer
	slog.New(slog.NewJSONHandler(&buf, nil)).LogAttrs(nil, level, "request", attrs...)
	return buf.Bytes()
}

var timeValue = regexp.MustCompile(`^\{"time":"[^"]*"`)

// stripTime blanks a line's leading time value, the one field two
// encoders writing at different instants disagree on.
func stripTime(line []byte) string {
	return timeValue.ReplaceAllString(string(line), `{"time":""`)
}

// seededRecord draws one ordinary (non-slow) request record: every status
// class, every annotation, stage sets with and without cluster_forward
// (plus engine, remote and unlogged spans the line must leave out), and
// identifiers that need every kind of JSON escape.
func seededRecord(rng *rand.Rand) RequestRecord {
	statuses := []int{200, 201, 204, 301, 304, 400, 404, 405, 413, 429, 499, 500, 502, 503, 504}
	texts := []string{
		"", "detect", "POST", "GET", "0123456789abcdef-000042",
		`quote"back\slash`, "tab\tnl\nret\r", "ctl\x00\x01\x1f\x7f", "<html>&amp;",
		"héllo wörld", "bad\xffutf8\xc3", "sep\u2028para\u2029", "emoji 🎧",
	}
	text := func() string { return texts[rng.Intn(len(texts))] }
	var dur time.Duration
	switch rng.Intn(5) {
	case 0:
		dur = time.Duration(rng.Intn(3)) // 0, 1 ns, 2 ns: the smallest floats
	case 1:
		dur = time.Duration(rng.Int63n(int64(time.Millisecond)))
	case 2:
		dur = time.Duration(rng.Int63n(int64(time.Second)))
	case 3:
		dur = time.Duration(rng.Int63n(int64(time.Hour)))
	default:
		dur = time.Duration(rng.Intn(1000)) * time.Millisecond
	}
	rec := RequestRecord{
		RequestID: text(),
		Route:     text(),
		Method:    text(),
		Status:    statuses[rng.Intn(len(statuses))],
		Duration:  dur,
		Outcome: Outcome{
			Cached:       rng.Intn(2) == 0,
			Collapsed:    rng.Intn(2) == 0,
			Remote:       rng.Intn(2) == 0,
			ShortCircuit: rng.Intn(2) == 0,
		},
	}
	switch rng.Intn(3) {
	case 0:
		rec.Verdict = "benign"
	case 1:
		rec.Verdict = "adversarial"
	}
	if rng.Intn(4) == 0 {
		return rec // untraced
	}
	tr := NewTrace(rec.RequestID)
	names := append(loggedStages[:], "queue")
	for n := rng.Intn(12); n > 0; n-- {
		sp := Span{
			Stage: names[rng.Intn(len(names))],
			Start: time.Duration(rng.Int63n(int64(time.Second))),
			Dur:   time.Duration(rng.Int63n(int64(50 * time.Millisecond))),
		}
		switch rng.Intn(6) {
		case 0:
			sp.Engine = "DS1"
		case 1:
			sp.Peer = "10.0.0.2:7946"
		}
		tr.spans = append(tr.spans, sp)
	}
	rec.Trace = tr
	return rec
}

// TestAccessLogLineMatchesSlog holds appendLine to the slog line it
// replaced: byte-identical apart from the time value.
func TestAccessLogLineMatchesSlog(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	withForward, withoutForward := 0, 0
	for i := 0; i < 2000; i++ {
		rec := seededRecord(rng)
		var buf bytes.Buffer
		l := NewRequestLogger(&buf, 1, 10*time.Hour)
		l.Log(rec)
		want := stripTime(referenceLine(rec))
		if got := stripTime(buf.Bytes()); got != want {
			t.Fatalf("record %d %+v:\n got %s\nwant %s", i, rec, got, want)
		}
		if strings.Contains(want, `"cluster_forward_ms"`) {
			withForward++
		} else if strings.Contains(want, `"stages"`) {
			withoutForward++
		}
		var m map[string]any
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("record %d: line is not JSON: %v", i, err)
		}
		if _, err := time.Parse(time.RFC3339Nano, m["time"].(string)); err != nil {
			t.Fatalf("record %d: time: %v", i, err)
		}
	}
	if withForward < 100 || withoutForward < 100 {
		t.Fatalf("stage sets under-covered: %d with cluster_forward, %d without", withForward, withoutForward)
	}
}

// TestAppendJSONFloatMatchesEncodingJSON covers the float formats a
// duration never reaches: the 'e' form at both ends, with its exponent
// fix-up.
func TestAppendJSONFloatMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []float64{0, 1, -1, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-300, 1e20, 1e21, 1.2345e22, 123456.789, math.SmallestNonzeroFloat64, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		vals = append(vals, math.Pow(10, rng.Float64()*60-30)*(rng.Float64()-0.5))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); string(got) != string(want) {
			t.Fatalf("%v: got %s, want %s", v, got, want)
		}
	}
}

// TestAccessLogConcurrentLinesStayWhole mixes ordinary and slow lines from
// 8 goroutines on one writer: every line must come out whole.
func TestAccessLogConcurrentLinesStayWhole(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLogger(&buf, 1, 10*time.Millisecond)
	const goroutines, perG = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr := NewTrace(fmt.Sprintf("g%d-%d", g, i))
				tr.Record(StageDecode, "", time.Now())
				tr.Record(StageTranscribe, "DS0", time.Now())
				dur := time.Millisecond
				if i%3 == 0 {
					dur = time.Second // slow: the slog path
				}
				l.Log(RequestRecord{RequestID: tr.ID(), Route: "detect", Method: "POST", Status: 200, Duration: dur, Outcome: Outcome{Verdict: "benign"}, Trace: tr})
			}
		}(g)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*perG)
	}
	slow := 0
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if m["msg"] == "slow request" {
			slow++
		}
	}
	if want := goroutines * ((perG + 2) / 3); slow != want {
		t.Fatalf("%d slow lines, want %d", slow, want)
	}
}
