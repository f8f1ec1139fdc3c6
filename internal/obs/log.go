package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// RequestRecord is one finished HTTP request, as the serving middleware
// hands it to the logger.
type RequestRecord struct {
	RequestID string
	Route     string
	Method    string
	Status    int
	Duration  time.Duration
	// Outcome is the trace's; zero for non-detection routes.
	Outcome
	// Trace supplies the per-stage timings; nil is fine.
	Trace *Trace
}

// RequestLogger writes structured JSON request logs, one line per logged
// request. Ordinary requests are sampled at a configurable rate, exactly
// and deterministically: ordinary request n logs when ⌊n·rate⌋ passes an
// integer, so any n requests log ⌊n·rate⌋ lines (0.1 logs every 10th,
// 0.7 logs 7 of every 10); slow
// requests — those at or above the Slow threshold — and server errors
// (status >= 500) always log, with full span detail for slow ones.
//
// Every line reads exactly as log/slog's JSONHandler would write it, but
// appendLine appends it into one pooled buffer, skipping slog's attribute
// boxing and its json.Marshal per float. Each line is written whole under
// one mutex, so lines never interleave.
type RequestLogger struct {
	mu sync.Mutex
	w  io.Writer
	// rate is the sampled fraction of ordinary requests, in [0,1]; 0
	// logs only slow and error requests.
	rate float64
	slow time.Duration
	n    atomic.Uint64
}

// lineBufs recycles line buffers across requests.
var lineBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// NewRequestLogger builds a logger writing JSON lines to w. sampleRate is
// the fraction of ordinary requests to log (clamped to [0,1]; 1 logs
// everything, 0 logs only slow requests and errors). slow is the
// always-log latency threshold (0 means 1s).
func NewRequestLogger(w io.Writer, sampleRate float64, slow time.Duration) *RequestLogger {
	if slow <= 0 {
		slow = time.Second
	}
	return &RequestLogger{w: w, rate: min(max(sampleRate, 0), 1), slow: slow}
}

// Log records one finished request, applying the sampling policy. Nil-safe:
// a nil logger drops everything.
func (l *RequestLogger) Log(rec RequestRecord) {
	if l == nil {
		return
	}
	slow := rec.Duration >= l.slow
	if !slow && rec.Status < 500 {
		n := float64(l.n.Add(1))
		if math.Floor(n*l.rate) == math.Floor((n-1)*l.rate) {
			return
		}
	}
	bp := lineBufs.Get().(*[]byte)
	*bp = appendLine((*bp)[:0], time.Now(), slow, rec)
	l.mu.Lock()
	_, _ = l.w.Write(*bp) // dropped, as slog drops it: a log line has no caller to tell
	l.mu.Unlock()
	lineBufs.Put(bp)
}

// appendLine appends rec's access-log line, newline included, at time
// now: byte for byte what slog's JSONHandler writes for the same
// attributes. A slow line is a WARN (ERROR on a 5xx) "slow request" with
// every span, per-engine and remote ones included, in a trailing "spans"
// group, which slog leaves out when it is empty.
func appendLine(b []byte, now time.Time, slow bool, rec RequestRecord) []byte {
	level, msg := "INFO", "request"
	if slow {
		level, msg = "WARN", "slow request"
	}
	if rec.Status >= 500 {
		level = "ERROR"
	}
	b = append(b, `{"time":"`...)
	b = now.AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, level...)
	b = append(b, `","msg":"`...)
	b = append(b, msg...)
	b = append(b, `","request_id":`...)
	b = appendJSONString(b, rec.RequestID)
	b = append(b, `,"route":`...)
	b = appendJSONString(b, rec.Route)
	b = append(b, `,"method":`...)
	b = appendJSONString(b, rec.Method)
	b = append(b, `,"status":`...)
	b = strconv.AppendInt(b, int64(rec.Status), 10)
	b = append(b, `,"duration_ms":`...)
	b = appendJSONFloat(b, durMS(rec.Duration))
	if rec.Verdict != "" {
		b = append(b, `,"verdict":`...)
		b = appendJSONString(b, rec.Verdict)
		b = append(b, `,"cached":`...)
		b = strconv.AppendBool(b, rec.Cached)
		b = append(b, `,"collapsed":`...)
		b = strconv.AppendBool(b, rec.Collapsed)
		if rec.ShortCircuit {
			b = append(b, `,"short_circuit":true`...)
		}
		if rec.Remote {
			b = append(b, `,"remote":true`...)
		}
	}
	var totals [len(loggedStages)]time.Duration
	if seen := rec.Trace.loggedStageTotals(&totals); seen != 0 {
		b = append(b, `,"stages":{`...)
		sep := ""
		for i, stage := range loggedStages {
			if seen&(1<<i) == 0 {
				continue
			}
			b = append(b, sep...)
			b = append(b, '"')
			b = append(b, stage...)
			b = append(b, `_ms":`...)
			b = appendJSONFloat(b, durMS(totals[i]))
			sep = ","
		}
		b = append(b, '}')
	}
	var spans []Span
	if slow {
		spans = rec.Trace.Spans()
	}
	for i, sp := range spans {
		if i == 0 {
			b = append(b, `,"spans":{"`...)
		} else {
			b = append(b, `,"`...)
		}
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `":{"span":`...)
		b = appendJSONString(b, sp.Name())
		b = append(b, `,"start_ms":`...)
		b = appendJSONFloat(b, durMS(sp.Start))
		b = append(b, `,"dur_ms":`...)
		b = appendJSONFloat(b, durMS(sp.Dur))
		b = append(b, '}')
	}
	if len(spans) > 0 {
		b = append(b, '}')
	}
	return append(b, "}\n"...)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// appendJSONFloat formats f as encoding/json does (and so as slog's
// JSONHandler does): shortest 'f' form, 'e' form outside [1e-6, 1e21),
// with the exponent's leading zero dropped (e-07 → e-7). f is finite.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendJSONString appends s as a quoted JSON string, escaped as slog's
// JSONHandler escapes it: encoding/json's rules without HTML escaping —
// quote, backslash and control bytes escaped, invalid UTF-8 as \ufffd,
// U+2028 and U+2029 as \u2028 and \u2029.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
