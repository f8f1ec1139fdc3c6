// Package obs is the observability layer of MVP-EARS: a lightweight,
// allocation-conscious pipeline tracer carried through context, request-ID
// generation and propagation, structured JSON request logging on log/slog,
// and an append-only JSONL audit sink for adversarial verdicts.
//
// The tracer is stdlib-only by design (no OpenTelemetry dependency): the
// detection pipeline is a fixed five-stage chain — decode, per-engine
// transcription, phonetic encoding, similarity, classify — so a bounded
// span slice under one mutex covers it without the generality (or the
// allocations) of a full tracing SDK. Every recording method is nil-safe:
// pipeline code calls obs.TraceFrom(ctx).Record(...) unconditionally, and
// an untraced request costs one context lookup and one branch.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The pipeline stages, in execution order: the span names a traced
// request records and its access-log line sums as <stage>_ms.
const (
	StageDecode     = "decode"     // WAV decode + resample to the engine rate
	StageTranscribe = "transcribe" // the parallel per-engine transcription fan-out
	StagePhonetic   = "phonetic"   // phonetic encoding of every transcription
	StageSimilarity = "similarity" // pairwise similarity scoring
	StageClassify   = "classify"   // classifier inference on the score vector

	// StageClusterForward is the peer round trip of a request answered by
	// its owning replica (remote cache hit or forwarded detection). It
	// replaces the local pipeline rather than extending it. The owner's own
	// stage spans come back on the wire and stitch in under this span (see
	// Trace.RecordRemote).
	StageClusterForward = "cluster_forward"
)

// Span is one timed unit of pipeline work. Engine is empty for
// whole-stage spans and names the ASR engine for per-engine transcription
// spans (which nest inside the aggregate transcribe span).
type Span struct {
	Stage  string
	Engine string
	// Peer is the advertised address of the replica the span ran on, or
	// empty for local spans. Set by Trace.RecordRemote when a forwarded
	// detection's spans come back over the cluster wire and stitch in.
	Peer string
	// Start is the offset from the trace's start.
	Start time.Duration
	Dur   time.Duration
}

// Name renders the span's qualified name for logs and explain output:
// stage, stage:engine for per-engine spans, with an @peer suffix on spans
// stitched in from a remote replica.
func (sp Span) Name() string {
	name := sp.Stage
	if sp.Engine != "" {
		name += ":" + sp.Engine
	}
	if sp.Peer != "" {
		name += "@" + sp.Peer
	}
	return name
}

// TraceContext is the compact propagation form of a trace carried on the
// cluster wire protocol: enough for the receiving replica to join its
// work to the requester's trace, nothing more.
type TraceContext struct {
	// TraceID is the originating request's trace (request) ID.
	TraceID string
	// Parent names the requester-side span the remote work nests under
	// (StageClusterForward on the forward path).
	Parent string
	// Sampled asks the receiver to ship its stage spans back in the
	// verdict so the requester can stitch them.
	Sampled bool
}

// Trace collects the spans and the Outcome of one request. A nil
// *Trace is valid and records nothing, so pipeline code never branches on
// whether tracing is enabled.
type Trace struct {
	id    string
	begin time.Time

	mu      sync.Mutex
	spans   []Span
	outcome Outcome
}

// Outcome is how a request's verdicts were served, as its access-log line
// reports it; zero for requests that serve no verdict. A batch notes every
// part on one trace.
type Outcome struct {
	// Verdict is the served verdict; a batch keeps its worst.
	Verdict string
	// Cached: every verdict came from a verdict cache (none was fresh).
	Cached bool
	// Fresh: the request ran a detection of its own.
	Fresh bool
	// Collapsed: the request shared another request's in-flight detection.
	Collapsed bool
	// ShortCircuit: the cascade answered without the full engine ensemble.
	ShortCircuit bool
	// Remote: another replica answered (remote cache hit or forwarded
	// detection).
	Remote bool
}

// NewTrace starts a trace identified by id (usually the request ID). The
// span slice is allocated lazily on the first Record: a verdict-cache hit
// never records a span, so the pure hit path pays nothing for tracing
// beyond the Trace struct itself.
func NewTrace(id string) *Trace {
	return &Trace{
		id:    id,
		begin: time.Now(),
	}
}

// ID returns the trace's identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Record appends one span that started at start and ends now. Safe for
// concurrent use (parallel engines record into the same trace) and a no-op
// on a nil trace.
func (t *Trace) Record(stage, engine string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if t.spans == nil {
		// The serving pipeline records 5 stage spans plus one span per
		// engine; 12 covers the default four-engine system without growth.
		t.spans = make([]Span, 0, 12)
	}
	t.spans = append(t.spans, Span{
		Stage:  stage,
		Engine: engine,
		Start:  start.Sub(t.begin),
		Dur:    now.Sub(start),
	})
	t.mu.Unlock()
}

// Context returns the trace's wire propagation form, parented under the
// given requester-side span name. A nil trace propagates nothing and asks
// for no remote spans (Sampled false), so untraced requests keep the old
// compact wire encoding.
func (t *Trace) Context(parent string) TraceContext {
	if t == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: t.id, Parent: parent, Sampled: true}
}

// RecordRemote stitches spans shipped back by the replica at peer into
// this trace. The remote offsets are relative to the remote trace's own
// start; they are re-anchored at rpcStart — the local wall time the round
// trip began — so the stitched spans nest inside the local
// StageClusterForward span without assuming synchronized clocks.
func (t *Trace) RecordRemote(peer string, rpcStart time.Time, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	base := rpcStart.Sub(t.begin)
	t.mu.Lock()
	for _, sp := range spans {
		sp.Peer = peer
		sp.Start += base
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans (nil on a nil trace).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Elapsed is the wall time since the trace began (0 on a nil trace).
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.begin)
}

// Note applies f to the trace's outcome under the trace's lock (a no-op
// on a nil trace). f must only read and write the Outcome: calling back
// into the trace would deadlock.
func (t *Trace) Note(f func(*Outcome)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f(&t.outcome)
}

// Outcome returns a copy of the trace's outcome (zero on a nil trace).
func (t *Trace) Outcome() Outcome {
	if t == nil {
		return Outcome{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outcome
}

// loggedStages are the stages an access-log line times, in the order it
// lists them: the pipeline, then StageClusterForward.
var loggedStages = [...]string{StageDecode, StageTranscribe, StagePhonetic, StageSimilarity, StageClassify, StageClusterForward}

// loggedStageTotals sums span durations by stage into out (indexed like
// loggedStages); bit i of seen is set when loggedStages[i] has at least
// one span. Per-engine transcription spans are left out: the aggregate
// transcribe span already covers their wall time, and the engines run
// concurrently, so their sum is not a wall time. Remote spans are left out
// too: the local cluster_forward span covers their wall time. Spans of any
// other stage are ignored.
func (t *Trace) loggedStageTotals(out *[len(loggedStages)]time.Duration) (seen uint8) {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Engine != "" || sp.Peer != "" {
			continue
		}
		for i, stage := range loggedStages {
			if sp.Stage == stage {
				out[i] += sp.Dur
				seen |= 1 << i
				break
			}
		}
	}
	return seen
}

type ctxKey int

const (
	traceKey ctxKey = iota
	explainKey
)

// WithTrace attaches t to the context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey, t)
}

// TraceFrom returns the context's trace, or nil (which is safe to record
// into) when the request is untraced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// WithExplain marks the context as requesting a verdict explanation:
// System.DetectCtx populates Detection.Explanation when it is set.
func WithExplain(ctx context.Context) context.Context {
	return context.WithValue(ctx, explainKey, true)
}

// ExplainRequested reports whether WithExplain was applied.
func ExplainRequested(ctx context.Context) bool {
	v, _ := ctx.Value(explainKey).(bool)
	return v
}

// Request IDs: an 8-byte per-process random prefix plus an atomic counter.
// Uniqueness across processes comes from the prefix, uniqueness within a
// process from the counter, and generation costs one atomic add — cheap
// enough for the cache-hit serving path.
var (
	reqIDPrefix = func() string {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degraded but functional: time-seeded prefix.
			return fmt.Sprintf("%016x", time.Now().UnixNano())
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Uint64
)

// NewRequestID returns a process-unique request identifier of the form
// <prefix>-<counter>, counter zero-padded to six digits. Built with
// strconv instead of fmt.Sprintf: ID minting is on the cache-hit serving
// path, where Sprintf's interface boxing and format parsing are
// measurable.
func NewRequestID() string {
	n := reqIDCounter.Add(1)
	var buf [40]byte // 16-byte prefix + '-' + up to 20 digits
	b := append(buf[:0], reqIDPrefix...)
	b = append(b, '-')
	for pad := uint64(100000); pad >= 10 && n < pad; pad /= 10 {
		b = append(b, '0')
	}
	b = strconv.AppendUint(b, n, 10)
	return string(b)
}

// SanitizeRequestID validates a client-supplied X-Request-ID for echoing:
// printable ASCII, no quotes or backslashes (it lands in headers, JSON and
// log lines), at most 128 bytes. It returns "" when the value is unusable,
// in which case the caller should generate a fresh ID.
func SanitizeRequestID(id string) string {
	if id == "" || len(id) > 128 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return ""
		}
	}
	return id
}
