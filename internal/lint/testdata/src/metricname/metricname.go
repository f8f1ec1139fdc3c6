// Package metricname holds golden cases for the metricname analyzer. Its
// row constructors mirror the serving metric table's; the golden Config
// points MetricTable at this package.
package metricname

// Family stands in for mvpears/internal/server.Family.
type Family struct {
	Name, Help, Question string
	Labels               []string
	Buckets              []float64
}

func counter(name, help, question string, labels ...string) Family {
	return Family{Name: name, Help: help, Question: question, Labels: labels}
}

func gauge(name, help, question string, labels ...string) Family {
	return Family{Name: name, Help: help, Question: question, Labels: labels}
}

func histogram(name, help, question string, buckets []float64, labels ...string) Family {
	return Family{Name: name, Help: help, Question: question, Labels: labels, Buckets: buckets}
}

const goodName = "mvpears_requests_total"

var dynamic = "computed"

// table exercises family-name and label-name checks. Only names that are
// compile-time constants in the project grammar pass.
var table = []Family{
	counter(goodName, "requests served", "q?"),
	counter("mvpears_cache_hits_total", "cache hits", "q?"),
	counter("mvpearsd_requests_total", "stale daemon prefix", "q?"), // want `metric family "mvpearsd_requests_total" does not match`
	gauge("mvpears_Replicas", "uppercase", "q?"),                    // want `metric family "mvpears_Replicas" does not match`
	counter(dynamic, "computed name", "q?"),                         // want `metric family name must be a compile-time constant`
	histogram("mvpears_latency_seconds", "latency", "q?", []float64{0.1, 1}),
	counter("mvpears_verdicts_total", "verdicts by engine", "q?", "engine", "verdict"),
	counter("mvpears_verdicts_total", "bad label", "q?", "Engine"), // want `metric label "Engine" does not match`
	gauge("mvpears_slo_burn_rate", "dynamic label", "q?", dynamic), // want `metric label name must be a compile-time constant`
	histogram("mvpears_stage_seconds", "per-stage latency", "q?", []float64{0.1}, "stage"),
	histogram("mvpears_stage_seconds", "bad label", "q?", []float64{0.1}, "stage-name"), // want `metric label "stage-name" does not match`
}
