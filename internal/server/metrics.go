package server

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Hand-rolled Prometheus-style instrumentation: every family the daemon
// exports is one row of the families table, and a Registry renders the
// table's live values in the text exposition format. No external
// dependencies — the whole repo is stdlib-only — and no global state:
// each Server owns one Registry.

// Family is one metric family: a row of the families table. Build rows
// with counter, gauge and histogram. Question is the one-line operator
// question the family answers; docs/METRICS.md prints it.
type Family struct {
	Name, Type, Help, Question string
	// Labels names the family's labels, at most two.
	Labels []string
	// Buckets are a histogram's upper bounds, ascending; +Inf is implicit.
	Buckets []float64
}

func counter(name, help, question string, labels ...string) Family {
	return Family{Name: name, Type: "counter", Help: help, Question: question, Labels: labels}
}

func gauge(name, help, question string, labels ...string) Family {
	return Family{Name: name, Type: "gauge", Help: help, Question: question, Labels: labels}
}

func histogram(name, help, question string, buckets []float64, labels ...string) Family {
	return Family{Name: name, Type: "histogram", Help: help, Question: question, Labels: labels, Buckets: buckets}
}

// metricID indexes a family in the table a Registry was built from.
type metricID int

// The families mvpearsd exports, in exposition order.
const (
	mRequests metricID = iota
	mRequestSeconds
	mDetectStageSeconds
	mEngineSimilarity
	mMinSimilarity
	mDetections
	mCascadeEnginesRun
	mCascadeShortCircuits
	mCascadeSampledFull
	mInFlight
	mQueueDepth
	mPanics
	mCacheHits
	mCacheMisses
	mCacheEvictions
	mCacheResidentBytes
	mCacheEntries
	mCollapsed
	mStreamSessions
	mStreamEvicted
	mStreamWindows
	mStreamEarlyExits
	mStreamWindowSeconds
	mStreamSessionsOpen
	mClusterForwards
	mClusterServed
	mClusterPeersHealthy
	mReloads
	mReloadFailures
	mClusterRTTSeconds
	mRejected
	mDriftScore
	mProbeSuspicion
	mAuditDropped
	mBuildInfo
	mModelInfo
)

// families is the metric table. Every family is exported whatever the
// configuration (zero when its feature is off), so the exposition shape
// does not depend on flags or backend.
var families = [...]Family{
	mRequests: counter("mvpears_requests_total",
		"Finished HTTP requests.",
		"How much traffic does each route take, and how much of it fails?", "route", "code"),
	mRequestSeconds: histogram("mvpears_request_duration_seconds",
		"End-to-end request latency.",
		"How long do clients wait on each route?", DefaultLatencyBuckets, "route"),
	mDetectStageSeconds: histogram("mvpears_detect_stage_seconds",
		"Cost of each detection this replica runs, by stage (recognition/similarity/classify). Decode, queueing and encoding are not in it; cluster round trips are mvpears_cluster_rtt_seconds{peer}.",
		"Where does a detection's time go: recognition, similarity or classify?", StageBuckets, "stage"),
	mEngineSimilarity: histogram("mvpears_engine_similarity",
		"Target-vs-auxiliary similarity score distribution per auxiliary engine.",
		"Is one auxiliary engine drifting away from the target on live traffic?", SimilarityBuckets, "engine"),
	mMinSimilarity: histogram("mvpears_engine_min_similarity",
		"Per-detection minimum auxiliary similarity score (transferable-AE early warning).",
		"Is live traffic moving toward the low scores a transferable AE produces?", SimilarityBuckets),
	mDetections: counter("mvpears_detections_total",
		"Verdicts served.",
		"How many verdicts are served, and what share is adversarial?", "verdict"),
	mCascadeEnginesRun: histogram("mvpears_cascade_engines_run",
		"Auxiliary engines run per cascaded detection.",
		"How many auxiliary engines does the cascade run per detection?", EngineCountBuckets),
	mCascadeShortCircuits: counter("mvpears_cascade_short_circuits_total",
		"Detections answered from a partial similarity vector (auxiliaries skipped).",
		"How often does the cascade answer without every auxiliary?"),
	mCascadeSampledFull: counter("mvpears_cascade_sampled_full_total",
		"Deterministic 1-in-N full-ensemble monitoring runs under the cascade.",
		"Is the cascade's full-ensemble monitoring sample still running?"),
	mInFlight: gauge("mvpears_in_flight_requests",
		"Requests currently being handled.",
		"How many requests is the replica handling right now?"),
	mQueueDepth: gauge("mvpears_queue_depth",
		"Detections waiting in the admission queue.",
		"Are detections waiting for a worker?"),
	mPanics: counter("mvpears_handler_panics_total",
		"Handler panics recovered into 500s.",
		"Is a handler crashing?"),
	mCacheHits: counter("mvpears_cache_hits_total",
		"Verdicts served from the cross-request cache.",
		"How many requests does the verdict cache spare a detection?"),
	mCacheMisses: counter("mvpears_cache_misses_total",
		"Verdict-cache lookups that ran a detection.",
		"What share of lookups miss the verdict cache?"),
	mCacheEvictions: counter("mvpears_cache_evictions_total",
		"Verdicts evicted by entry or byte pressure.",
		"Is the verdict cache too small for the working set?"),
	mCacheResidentBytes: gauge("mvpears_cache_resident_bytes",
		"Heap bytes held by cached verdicts, as charged to the byte bound: keys, records, scores, transcriptions, explanations, cache bookkeeping.",
		"How close is the verdict cache to its byte bound?"),
	mCacheEntries: gauge("mvpears_cache_entries",
		"Verdicts currently cached.",
		"How close is the verdict cache to its entry bound?"),
	mCollapsed: counter("mvpears_singleflight_collapsed_total",
		"Requests that shared another request's in-flight detection.",
		"How many concurrent duplicate uploads share one detection?"),
	mStreamSessions: counter("mvpears_stream_sessions_total",
		"Streaming sessions opened.",
		"How many streaming sessions do clients open?"),
	mStreamEvicted: counter("mvpears_stream_evicted_total",
		"Streaming sessions evicted after the idle timeout.",
		"Are streaming clients abandoning sessions mid-stream?"),
	mStreamWindows: counter("mvpears_stream_windows_total",
		"Provisional sliding-window verdicts emitted.",
		"How many provisional window verdicts do streams emit, and how many flag?", "verdict"),
	mStreamEarlyExits: counter("mvpears_stream_early_exits_total",
		"Streaming sessions flagged adversarial before end-of-stream.",
		"How often does a stream flag an attack before it ends?"),
	mStreamWindowSeconds: histogram("mvpears_stream_window_seconds",
		"Per-window evaluation wall time: gate, the feedforward engines' first forward of each ungated frame the window covers (not paid when the audio arrived), decode, scoring.",
		"Does window evaluation keep up with the hop?", DefaultLatencyBuckets),
	mStreamSessionsOpen: gauge("mvpears_stream_sessions_open",
		"Streaming sessions currently open.",
		"How close are open sessions to the session cap?"),
	mClusterForwards: counter("mvpears_cluster_forwards_total",
		"Detect requests forwarded to their owning peer, by outcome.",
		"How often does a miss go to its owning peer, and how often does that fail?", "outcome"),
	mClusterServed: counter("mvpears_cluster_served_total",
		"Peer-protocol requests served for other replicas, by operation.",
		"How much work does this replica do for its peers?", "op"),
	mClusterPeersHealthy: gauge("mvpears_cluster_peers_healthy",
		"Configured peers currently outside the failure backoff.",
		"Can this replica reach its peers?"),
	mReloads: counter("mvpears_model_reloads_total",
		"Completed hot model reloads.",
		"Did a hot model reload take effect?"),
	mReloadFailures: counter("mvpears_model_reload_failures_total",
		"Hot model reloads that failed (old model kept serving).",
		"Did a hot model reload fail and leave the old model serving?"),
	mClusterRTTSeconds: histogram("mvpears_cluster_rtt_seconds",
		"Peer RPC round-trip time as the requester sees it.",
		"Is one peer slow to answer?", DefaultLatencyBuckets, "peer"),
	mRejected: counter("mvpears_rejected_total",
		"Deliberate load-shed rejections across all subsystems, by reason.",
		"Is the replica shedding load, and which bound sheds it?", "reason"),
	mDriftScore: gauge("mvpears_drift_score",
		"Divergence of each live detection-quality family from its calibration reference (total-variation distance for distributions, absolute difference for rates).",
		"Has live detection quality drifted from calibration?", "family"),
	mProbeSuspicion: gauge("mvpears_probe_suspicion",
		"Fraction of recent detect uploads that were near-duplicates of earlier uploads (mutate-one-sample probing signal).",
		"Is someone probing the detector with near-duplicate uploads?"),
	mAuditDropped: counter("mvpears_audit_dropped_total",
		"Audit entries dropped by the sink's retention or write-failure policy.",
		"Is the audit trail losing adversarial verdicts?"),
	mBuildInfo: gauge("mvpears_build_info",
		"Build identity of the running daemon (constant 1).",
		"Which build is each replica running?", "version", "go_version"),
	mModelInfo: gauge("mvpears_model_info",
		"Identity of the model currently serving (constant 1; empty fingerprint when caching is off).",
		"Which model is each replica serving, and does the fleet agree?", "fingerprint"),
}

// Families returns the metric table in exposition order (the source of
// the generated metrics reference; see cmd/genmetrics).
func Families() []Family { return slices.Clone(families[:]) }

// DefaultLatencyBuckets covers 1 ms .. 30 s, tuned for detection requests
// whose recognition stage dominates at a few milliseconds per engine.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// StageBuckets covers 10 µs .. 30 s: a detection's similarity and
// classify stages take tens of microseconds, its recognition milliseconds.
var StageBuckets = append([]float64{0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005}, DefaultLatencyBuckets...)

// SimilarityBuckets covers the [0,1] Jaro-Winkler score range, dense near
// 1 where benign traffic concentrates — drift out of the top buckets is
// the transferable-AE early-warning signal.
var SimilarityBuckets = []float64{
	0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1,
}

// EngineCountBuckets covers "how many auxiliary engines ran": small
// integer counts, one bucket per engine up to the largest plausible
// ensemble.
var EngineCountBuckets = []float64{0, 1, 2, 3, 4, 5, 6, 8}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf is implicit
	counts []uint64  // len(bounds)+1, last is the +Inf bucket
	sum    float64
	total  uint64
}

// Observe records one value. A NaN observation is dropped — SearchFloat64s
// would otherwise place it in the first bucket and poison _sum forever —
// and a negative one is clamped to 0 (every tracked quantity is a duration
// or a similarity score, so negatives can only be clock skew or a bug).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	if v < 0 {
		v = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.total++
}

// snapshot returns cumulative bucket counts, the sum and the total.
func (h *Histogram) snapshot() ([]uint64, float64, uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	return cum, h.sum, h.total
}

// sampler reads a sampled family at scrape time: it calls emit once per
// child, with the label values in the family's label order.
type sampler func(emit emitFunc)

type emitFunc = func(v float64, values ...string)

// Registry holds the live values of one metric table and renders them in
// the Prometheus text exposition format. A family is either sampled (its
// sampler reads values owned elsewhere at scrape time) or updated on the
// request path through counter and histogram.
type Registry struct {
	table []Family
	fams  []familyState // indexed like table
}

// maxLabels bounds a family's labels: a child is keyed by its label
// values in a fixed-size array, so finding it allocates nothing.
const maxLabels = 2

type familyState struct {
	sample   sampler
	mu       sync.Mutex
	children map[[maxLabels]string]*series
}

// series is one child of a family: its rendered label set and its value.
type series struct {
	labels string // rendered {k="v",...} suffix, "" for a label-less family
	count  Counter
	hist   *Histogram // histogram families only
}

// newRegistry builds a registry for table; samplers binds the sampled
// families' read functions by ID. A label-less family that is not sampled
// gets its one child now, so it renders (as zero) before its first use.
func newRegistry(table []Family, samplers map[metricID]sampler) *Registry {
	r := &Registry{table: table, fams: make([]familyState, len(table))}
	for i, f := range table {
		if len(f.Labels) > maxLabels {
			panic(fmt.Sprintf("server: metric %s has %d labels, at most %d are supported", f.Name, len(f.Labels), maxLabels))
		}
		fs := &r.fams[i]
		fs.sample = samplers[metricID(i)]
		fs.children = make(map[[maxLabels]string]*series)
		if fs.sample == nil && len(f.Labels) == 0 {
			r.child(metricID(i), f.Type, nil)
		}
	}
	return r
}

// counter returns the child counter of family id for the label values,
// creating it on first use.
func (r *Registry) counter(id metricID, values ...string) *Counter {
	return &r.child(id, "counter", values).count
}

// histogram returns the child histogram of family id for the label
// values, creating it on first use.
func (r *Registry) histogram(id metricID, values ...string) *Histogram {
	return r.child(id, "histogram", values).hist
}

func (r *Registry) child(id metricID, typ string, values []string) *series {
	f := &r.table[id]
	if f.Type != typ || len(values) != len(f.Labels) {
		panic(fmt.Sprintf("server: metric %s is a %s with %d labels, used as a %s with %d", f.Name, f.Type, len(f.Labels), typ, len(values)))
	}
	var key [maxLabels]string
	copy(key[:], values)
	fs := &r.fams[id]
	fs.mu.Lock()
	defer fs.mu.Unlock()
	c := fs.children[key]
	if c == nil {
		c = &series{labels: renderLabels(f.Labels, values)}
		if typ == "histogram" {
			c.hist = &Histogram{bounds: f.Buckets, counts: make([]uint64, len(f.Buckets)+1)}
		}
		fs.children[key] = c
	}
	return c
}

// Render writes every family in table order, children sorted by label
// set.
func (r *Registry) Render(w io.Writer) error {
	var b strings.Builder
	for i, f := range r.table {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		fs := &r.fams[i]
		if fs.sample != nil {
			renderSampled(&b, f, fs.sample)
			continue
		}
		fs.mu.Lock()
		children := make([]*series, 0, len(fs.children))
		for _, c := range fs.children {
			children = append(children, c)
		}
		fs.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })
		for _, c := range children {
			if c.hist != nil {
				renderHistogram(&b, f.Name, c.labels, c.hist)
			} else {
				fmt.Fprintf(&b, "%s%s %d\n", f.Name, c.labels, c.count.Value())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderSampled writes one sampled family's children. A counter's samples
// render as integers, as the counters the request path updates do.
func renderSampled(b *strings.Builder, f Family, sample sampler) {
	type line struct {
		labels string
		v      float64
	}
	var lines []line
	sample(func(v float64, values ...string) {
		if len(values) != len(f.Labels) {
			panic(fmt.Sprintf("server: metric %s wants %d label values, got %d", f.Name, len(f.Labels), len(values)))
		}
		lines = append(lines, line{renderLabels(f.Labels, values), v})
	})
	sort.Slice(lines, func(i, j int) bool { return lines[i].labels < lines[j].labels })
	for _, l := range lines {
		if f.Type == "counter" {
			fmt.Fprintf(b, "%s%s %d\n", f.Name, l.labels, uint64(l.v))
		} else {
			fmt.Fprintf(b, "%s%s %s\n", f.Name, l.labels, formatFloat(l.v))
		}
	}
}

// renderHistogram writes the _bucket/_sum/_count series of one histogram.
// labelKey is either empty or a rendered {...} set; the le label is merged
// into it.
func renderHistogram(w io.Writer, name, labelKey string, h *Histogram) {
	cum, sum, total := h.snapshot()
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labelKey, "le", formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labelKey, "le", "+Inf"), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labelKey, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labelKey, total)
}

// renderLabels formats a {k="v",...} label suffix.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel inserts one extra label into an existing rendered label set.
func mergeLabel(key, name, value string) string {
	extra := name + `="` + escapeLabel(value) + `"`
	if key == "" {
		return "{" + extra + "}"
	}
	return key[:len(key)-1] + "," + extra + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
