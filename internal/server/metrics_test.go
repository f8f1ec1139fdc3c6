package server

import (
	"io"
	"log"
	"slices"
	"strings"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func mustContain(t *testing.T, out string, lines ...string) {
	t.Helper()
	for _, line := range lines {
		if !strings.Contains(out, line) {
			t.Fatalf("output missing %q:\n%s", line, out)
		}
	}
}

func TestCounterAndGaugeRendering(t *testing.T) {
	r := newRegistry([]Family{
		counter("jobs_total", "Jobs.", ""),
		gauge("depth", "Depth.", ""),
		counter("sampled_total", "Sampled.", ""),
	}, map[metricID]sampler{
		1: func(emit emitFunc) { emit(7) },
		2: func(emit emitFunc) { emit(1e6) },
	})
	c := r.counter(0)
	c.Inc()
	c.Add(4)
	mustContain(t, render(t, r),
		"# HELP jobs_total Jobs.",
		"# TYPE jobs_total counter",
		"jobs_total 5",
		"# TYPE depth gauge",
		"depth 7",
		"sampled_total 1000000\n", // a counter never renders as 1e+06
	)
}

func TestCounterVecRendering(t *testing.T) {
	r := newRegistry([]Family{counter("requests_total", "Requests.", "", "route", "code")}, nil)
	r.counter(0, "detect", "200").Add(3)
	r.counter(0, "detect", "429").Inc()
	r.counter(0, "metrics", "200").Inc()
	// Same labels return the same child.
	r.counter(0, "detect", "200").Inc()
	out := render(t, r)
	mustContain(t, out,
		`requests_total{route="detect",code="200"} 4`,
		`requests_total{route="detect",code="429"} 1`,
		`requests_total{route="metrics",code="200"} 1`,
	)
	// Deterministic ordering: children render sorted by label key.
	if strings.Index(out, `code="200"`) > strings.Index(out, `code="429"`) {
		t.Fatalf("label series not sorted:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	r := newRegistry([]Family{histogram("latency_seconds", "Latency.", "", []float64{0.1, 1})}, nil)
	h := r.histogram(0)
	h.Observe(0.05)
	h.Observe(0.1) // on the bound: counted in le="0.1"
	h.Observe(0.5)
	h.Observe(3)
	mustContain(t, render(t, r),
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 4`,
		"latency_seconds_sum 3.65",
		"latency_seconds_count 4",
	)
	if _, _, n := h.snapshot(); n != 4 {
		t.Fatalf("count %d", n)
	}
}

func TestHistogramVecRendering(t *testing.T) {
	r := newRegistry([]Family{histogram("stage_seconds", "Stages.", "", []float64{0.5}, "stage")}, nil)
	r.histogram(0, "recognition").Observe(0.2)
	r.histogram(0, "classify").Observe(0.9)
	mustContain(t, render(t, r),
		`stage_seconds_bucket{stage="recognition",le="0.5"} 1`,
		`stage_seconds_bucket{stage="classify",le="0.5"} 0`,
		`stage_seconds_bucket{stage="classify",le="+Inf"} 1`,
		`stage_seconds_sum{stage="classify"} 0.9`,
		`stage_seconds_count{stage="recognition"} 1`,
	)
}

func TestGaugeFuncAndLabelEscaping(t *testing.T) {
	r := newRegistry([]Family{
		gauge("queue_depth", "Queue.", ""),
		counter("odd_total", "Odd.", "", "name"),
	}, map[metricID]sampler{0: func(emit emitFunc) { emit(3) }})
	r.counter(1, `a"b\c`).Inc()
	mustContain(t, render(t, r),
		"queue_depth 3",
		`odd_total{name="a\"b\\c"} 1`,
	)
}

// TestMetricUpdatesDoNotAllocate pins the request path's metric cost: once
// a child exists, finding it by its label values and updating it
// allocates nothing.
func TestMetricUpdatesDoNotAllocate(t *testing.T) {
	r := newRegistry(families[:], nil)
	route, code := "detect", "200"
	allocs := testing.AllocsPerRun(100, func() {
		r.counter(mRequests, route, code).Inc()
		r.histogram(mRequestSeconds, route).Observe(0.003)
	})
	if allocs != 0 {
		t.Fatalf("labeled counter Inc + histogram Observe: %v allocs, want 0", allocs)
	}
}

// TestFamiliesAreExpositionSafe checks the metric table against what the
// text exposition and the registry need: unique names, one-line help
// without escapes, at most two labels, ascending histogram buckets. The
// mvpearslint metricname analyzer checks the name and label grammar.
func TestFamiliesAreExpositionSafe(t *testing.T) {
	seen := map[string]bool{}
	for id, f := range Families() {
		if f.Name == "" {
			t.Errorf("metric ID %d has no table row", id)
			continue
		}
		if seen[f.Name] {
			t.Errorf("%s: declared twice", f.Name)
		}
		seen[f.Name] = true
		if f.Help == "" || strings.ContainsAny(f.Help, "\n\\") {
			t.Errorf("%s: help %q is empty or holds a newline or backslash", f.Name, f.Help)
		}
		if len(f.Labels) > maxLabels {
			t.Errorf("%s: %d labels, at most %d", f.Name, len(f.Labels), maxLabels)
		}
		if (f.Type == "histogram") != (len(f.Buckets) > 0) {
			t.Errorf("%s: a %s with %d buckets", f.Name, f.Type, len(f.Buckets))
		}
		for i := 1; i < len(f.Buckets); i++ {
			if !(f.Buckets[i-1] < f.Buckets[i]) {
				t.Errorf("%s: buckets not ascending: %v", f.Name, f.Buckets)
				break
			}
		}
	}
}

// TestScrapesExposeStableSeries: scraping creates no series. A fresh
// server exposes the same series on its second scrape as on its first,
// the detect route's latency histogram (pre-created at boot for the
// latency burn-rate rule) included.
func TestScrapesExposeStableSeries(t *testing.T) {
	s, err := New(Config{Backend: &fpStub{instantStub(), "model-a"}, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	series := func() []string {
		var names []string
		for _, line := range strings.Split(render(t, s.m), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				names = append(names, line[:strings.LastIndexByte(line, ' ')])
			}
		}
		return names
	}
	first, second := series(), series()
	if !slices.Equal(first, second) {
		var created []string
		for _, name := range second {
			if !slices.Contains(first, name) {
				created = append(created, name)
			}
		}
		t.Fatalf("the first scrape created %d series: %q", len(created), created)
	}
	if !slices.Contains(first, `mvpears_request_duration_seconds_count{route="detect"}`) {
		t.Fatal(`a fresh server does not expose mvpears_request_duration_seconds{route="detect"}`)
	}
}
