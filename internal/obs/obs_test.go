package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Record(StageDecode, "", time.Now())
	tr.Note(func(o *Outcome) { o.Verdict, o.Cached, o.Collapsed = "benign", true, true })
	if tr.ID() != "" || tr.Spans() != nil || tr.Elapsed() != 0 {
		t.Fatal("nil trace should be inert")
	}
	var totals [len(loggedStages)]time.Duration
	if seen := tr.loggedStageTotals(&totals); seen != 0 || totals != [len(loggedStages)]time.Duration{} {
		t.Fatalf("nil trace totals = %v (seen %b)", totals, seen)
	}
	if tr.Outcome() != (Outcome{}) {
		t.Fatal("nil trace outcome should be zero")
	}
}

func TestTraceRecordsSpansAndTotals(t *testing.T) {
	tr := NewTrace("req-1")
	start := time.Now()
	tr.Record(StageDecode, "", start)
	tr.Record(StageTranscribe, "", start)
	tr.Record(StageTranscribe, "DS1", start) // per-engine, excluded from totals
	tr.Record(StageClassify, "", start)
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[2].Engine != "DS1" || spans[2].Stage != StageTranscribe {
		t.Fatalf("engine span = %+v", spans[2])
	}
	var totals [len(loggedStages)]time.Duration
	seen := tr.loggedStageTotals(&totals)
	// decode, transcribe and classify are loggedStages 0, 1 and 4.
	if seen != 1<<0|1<<1|1<<4 {
		t.Fatalf("seen stages %05b, want decode, transcribe and classify", seen)
	}
	if totals[0] != spans[0].Dur || totals[1] != spans[1].Dur || totals[4] != spans[3].Dur {
		t.Fatalf("totals %v should be the stage spans alone, without the per-engine span: %+v", totals, spans)
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	tr := NewTrace("req-2")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr.Record(StageTranscribe, "E", time.Now())
		}()
	}
	wg.Wait()
	if n := len(tr.Spans()); n != 32 {
		t.Fatalf("got %d spans, want 32", n)
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TraceFrom(ctx) != nil || ExplainRequested(ctx) {
		t.Fatal("fresh context should carry nothing")
	}
	tr := NewTrace("x")
	ctx = WithExplain(WithTrace(ctx, tr))
	if TraceFrom(ctx) != tr || !ExplainRequested(ctx) {
		t.Fatal("values lost")
	}
}

func TestRequestIDsUniqueAndSanitized(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b || a == "" {
		t.Fatalf("ids not unique: %q %q", a, b)
	}
	if got := SanitizeRequestID(a); got != a {
		t.Fatalf("own id rejected: %q", got)
	}
	for _, bad := range []string{"", strings.Repeat("x", 129), "has\nnewline", `has"quote`, `has\slash`, "has\x7fdel"} {
		if SanitizeRequestID(bad) != "" {
			t.Fatalf("accepted %q", bad)
		}
	}
	if SanitizeRequestID("client-id-42") != "client-id-42" {
		t.Fatal("plain id rejected")
	}
}

// logLine decodes the single JSON log line in buf.
func logLine(t *testing.T, buf *bytes.Buffer) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("bad log line %q: %v", buf.String(), err)
	}
	return m
}

func TestRequestLoggerFieldsAndStageTimings(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLogger(&buf, 1, time.Hour)
	tr := NewTrace("r")
	tr.Record(StageDecode, "", time.Now())
	l.Log(RequestRecord{
		RequestID: "abc", Route: "detect", Method: "POST", Status: 200,
		Duration: 5 * time.Millisecond, Outcome: Outcome{Verdict: "benign", Cached: true}, Trace: tr,
	})
	m := logLine(t, &buf)
	if m["request_id"] != "abc" || m["route"] != "detect" || m["status"] != float64(200) {
		t.Fatalf("fields: %v", m)
	}
	if m["verdict"] != "benign" || m["cached"] != true {
		t.Fatalf("verdict fields: %v", m)
	}
	stages, ok := m["stages"].(map[string]any)
	if !ok {
		t.Fatalf("no stages group: %v", m)
	}
	if _, ok := stages["decode_ms"]; !ok {
		t.Fatalf("no decode timing: %v", stages)
	}
}

func TestRequestLoggerSampling(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLogger(&buf, 0.25, time.Hour) // every 4th
	for i := 0; i < 20; i++ {
		l.Log(RequestRecord{Status: 200, Duration: time.Millisecond})
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Fatalf("sampled %d lines, want 5", n)
	}
	// rate 0: ordinary requests never log, errors and slow always do.
	buf.Reset()
	l = NewRequestLogger(&buf, 0, 10*time.Millisecond)
	l.Log(RequestRecord{Status: 200, Duration: time.Millisecond})
	if buf.Len() != 0 {
		t.Fatalf("rate-0 logged ordinary request: %s", buf.String())
	}
	l.Log(RequestRecord{Status: 500, Duration: time.Millisecond})
	if buf.Len() == 0 {
		t.Fatal("error request not logged")
	}
}

// TestRequestLoggerSampleRateIsExact: n ordinary requests log ⌊n·rate⌋
// lines at any rate, not the nearest 1-in-N stride.
func TestRequestLoggerSampleRateIsExact(t *testing.T) {
	for _, rate := range []float64{1, 0.7, 0.5, 0.4, 0.3, 0.01, 0} {
		var buf bytes.Buffer
		l := NewRequestLogger(&buf, rate, time.Hour)
		for i := 0; i < 1000; i++ {
			l.Log(RequestRecord{Status: 200, Duration: time.Millisecond})
		}
		if got, want := strings.Count(buf.String(), "\n"), int(math.Floor(1000*rate)); got != want {
			t.Errorf("rate %v: %d of 1000 requests logged, want %d", rate, got, want)
		}
	}
}

func TestRequestLoggerSlowAlwaysLogsWithSpans(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLogger(&buf, 0, 10*time.Millisecond)
	tr := NewTrace("slow")
	tr.Record(StageTranscribe, "DS1", time.Now())
	l.Log(RequestRecord{Status: 200, Duration: 50 * time.Millisecond, Trace: tr})
	m := logLine(t, &buf)
	if m["msg"] != "slow request" {
		t.Fatalf("msg = %v", m["msg"])
	}
	spans, ok := m["spans"].(map[string]any)
	if !ok || len(spans) != 1 {
		t.Fatalf("spans = %v", m["spans"])
	}
	first := spans["0"].(map[string]any)
	if first["span"] != "transcribe:DS1" {
		t.Fatalf("span name = %v", first["span"])
	}
}

// TestSlowLineSpanKeysAreDistinct logs a slow request with more than 100
// spans (a large batch records ~8 per part): every span keeps its own key,
// so none overwrites another when the line is decoded.
func TestSlowLineSpanKeysAreDistinct(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLogger(&buf, 0, 10*time.Millisecond)
	tr := NewTrace("big-batch")
	const n = 120
	for i := 0; i < n; i++ {
		tr.Record(StageTranscribe, fmt.Sprintf("E%d", i), time.Now())
	}
	l.Log(RequestRecord{Status: 200, Duration: 50 * time.Millisecond, Trace: tr})
	spans, ok := logLine(t, &buf)["spans"].(map[string]any)
	if !ok || len(spans) != n {
		t.Fatalf("decoded %d distinct span keys, want %d", len(spans), n)
	}
	for i := 0; i < n; i++ {
		sp, ok := spans[strconv.Itoa(i)].(map[string]any)
		if !ok || sp["span"] != fmt.Sprintf("transcribe:E%d", i) {
			t.Fatalf("span %d = %v", i, spans[strconv.Itoa(i)])
		}
	}
}

func TestAuditSinkAppendsJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewAuditSink(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Write(AuditEntry{
				RequestID: "r", Verdict: "adversarial",
				Scores: []float64{0.2}, MinScore: 0.2, MinEngine: "DS1",
			})
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, line := range lines {
		var e AuditEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if e.Verdict != "adversarial" || e.MinEngine != "DS1" {
			t.Fatalf("entry %+v", e)
		}
	}
	// A nil sink drops silently.
	var nilSink *AuditSink
	if err := nilSink.Write(AuditEntry{}); err != nil {
		t.Fatal(err)
	}
	if err := nilSink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenAuditSinkAppends(t *testing.T) {
	path := t.TempDir() + "/audit.jsonl"
	for i := 0; i < 2; i++ {
		s, err := OpenAuditSink(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(AuditEntry{Verdict: "adversarial"}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 {
		t.Fatalf("reopen did not append: %d lines", n)
	}
}
