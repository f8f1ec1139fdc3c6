package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Hand-rolled Prometheus-style instrumentation: counters, gauges and
// histograms with optional label vectors, rendered in the text exposition
// format by a Registry. No external dependencies — the whole repo is
// stdlib-only — and no global state: each Server owns one Registry.

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

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

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

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// CountAtOrBelow returns how many observations fell at or below bound
// (which should be one of the histogram's bucket bounds; an intermediate
// value counts the buckets wholly at or below it). The SLO engine uses
// this to turn a latency histogram into a good-events counter.
func (h *Histogram) CountAtOrBelow(bound float64) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var n uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		n += h.counts[i]
	}
	return n
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

// DefaultLatencyBuckets covers 1 ms .. 30 s, tuned for detection requests
// whose recognition stage dominates at a few milliseconds per engine.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

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

// labeled pairs one child metric with its rendered label set.
type labeled[T any] struct {
	key    string // rendered {a="x",b="y"} suffix, used for dedup + sorting
	metric T
}

// vec is the shared label-vector machinery.
type vec[T any] struct {
	mu       sync.Mutex
	labels   []string
	children map[string]*labeled[T]
	make     func() T
}

func (v *vec[T]) with(values ...string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("server: metric wants %d label values, got %d", len(v.labels), len(values)))
	}
	key := renderLabels(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	child, ok := v.children[key]
	if !ok {
		child = &labeled[T]{key: key, metric: v.make()}
		v.children[key] = child
	}
	return child.metric
}

func (v *vec[T]) sorted() []*labeled[T] {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]*labeled[T], 0, len(v.children))
	for _, c := range v.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// CounterVec is a Counter family partitioned by label values.
type CounterVec struct {
	vec[*Counter]
}

// With returns the child counter for the given label values (creating it
// on first use).
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// HistogramVec is a Histogram family partitioned by label values.
type HistogramVec struct {
	vec[*Histogram]
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// Registry holds metrics in registration order and renders them in the
// Prometheus text exposition format.
type Registry struct {
	mu      sync.Mutex
	metrics []metricEntry
}

type metricEntry struct {
	name, help, typ string
	render          func(w io.Writer, name string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(name, help, typ string, render func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, metricEntry{name: name, help: help, typ: typ, render: render})
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// CounterVec registers and returns a new labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{vec[*Counter]{
		labels:   labels,
		children: make(map[string]*labeled[*Counter]),
		make:     func() *Counter { return &Counter{} },
	}}
	r.add(name, help, "counter", func(w io.Writer, n string) {
		for _, child := range v.sorted() {
			fmt.Fprintf(w, "%s%s %d\n", n, child.key, child.metric.Value())
		}
	})
	return v
}

// CounterFunc registers a counter whose value is sampled at render time
// (for monotonic values owned elsewhere, e.g. cache hit counts).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.add(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, fn())
	})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	})
	return g
}

// GaugeFunc registers a gauge whose value is sampled at render time (for
// values owned elsewhere, e.g. queue depth).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// LabeledValue is one (label values, value) sample of a GaugeVecFunc.
type LabeledValue struct {
	Values []string
	Value  float64
}

// GaugeVecFunc registers a labeled gauge family whose full child set is
// sampled at render time. The callback returns one LabeledValue per child;
// children are sorted by rendered label key so exposition is deterministic
// regardless of the callback's internal ordering.
func (r *Registry) GaugeVecFunc(name, help string, fn func() []LabeledValue, labels ...string) {
	r.add(name, help, "gauge", func(w io.Writer, n string) {
		samples := fn()
		lines := make([]string, 0, len(samples))
		for _, s := range samples {
			if len(s.Values) != len(labels) {
				panic(fmt.Sprintf("server: metric %s wants %d label values, got %d", n, len(labels), len(s.Values)))
			}
			lines = append(lines, renderLabels(labels, s.Values)+" "+formatFloat(s.Value))
		}
		sort.Strings(lines)
		for _, l := range lines {
			fmt.Fprintf(w, "%s%s\n", n, l)
		}
	})
}

// Histogram registers and returns a new histogram with the given upper
// bounds (ascending; +Inf is implicit).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		renderHistogram(w, n, "", h)
	})
	return h
}

// HistogramVec registers and returns a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	v := &HistogramVec{vec[*Histogram]{
		labels:   labels,
		children: make(map[string]*labeled[*Histogram]),
		make:     func() *Histogram { return newHistogram(bounds) },
	}}
	r.add(name, help, "histogram", func(w io.Writer, n string) {
		for _, child := range v.sorted() {
			renderHistogram(w, n, child.key, child.metric)
		}
	})
	return v
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// FamilyInfo describes one registered metric family (for the generated
// metrics reference; see cmd/genmetrics).
type FamilyInfo struct {
	Name, Type, Help string
}

// Families returns every registered family's metadata in registration
// order.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, FamilyInfo{Name: m.name, Type: m.typ, Help: m.help})
	}
	return out
}

// Render writes every registered metric in the Prometheus text format.
func (r *Registry) Render(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]metricEntry(nil), r.metrics...)
	r.mu.Unlock()
	var b strings.Builder
	for _, m := range metrics {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		m.render(&b, m.name)
	}
	_, err := io.WriteString(w, b.String())
	return err
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
