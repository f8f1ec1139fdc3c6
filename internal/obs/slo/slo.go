// Package slo evaluates service-level objectives over the serving
// layer's own counters. An objective is a target good-event fraction
// (e.g. "99% of detections answer within 250ms"); the engine turns the
// raw bad/total counters behind it into multi-window burn rates — how
// fast the error budget is being spent relative to the rate that would
// exactly exhaust it over the SLO period — and an alert decision that
// requires both a fast (minutes) and a slow (an hour) window to burn
// hot, so a single latency spike pages nobody but a sustained
// regression pages quickly.
//
// The engine is deliberately passive: it owns no goroutine and reads no
// clock. Status(now) snapshots the counters when enough time has passed
// since the previous snapshot and computes burn rates from the retained
// ring, so the metrics scrape cadence drives the windows. That keeps the
// package deterministic under mvpearslint's purity analyzer and adds
// zero work to the request path.
package slo

import (
	"sync"
	"time"
)

// Source reads one objective's cumulative counters: bad events and total
// events since process start. Sources must be monotonic; the engine only
// ever looks at deltas.
type Source func() (bad, total float64)

// Objective declares one SLO.
type Objective struct {
	// Name labels the objective in metrics and /statusz (e.g.
	// "detect_latency").
	Name string
	// Target is the good-event fraction promised, in (0, 1) — 0.99 means
	// at most 1% of events may be bad.
	Target float64
	// Source supplies the counters.
	Source Source
}

// Config parameterizes an Engine. Zero values get defaults.
type Config struct {
	Objectives []Objective
	// FastWindow is the short burn window (default 5m).
	FastWindow time.Duration
	// SlowWindow is the long burn window (default 1h); it also bounds how
	// much snapshot history is retained.
	SlowWindow time.Duration
	// SnapshotEvery is the minimum spacing between retained snapshots
	// (default 15s). Calls to Status more frequent than this reuse the
	// ring; less frequent calls simply yield a coarser ring.
	SnapshotEvery time.Duration
	// AlertBurn is the burn rate both windows must exceed to alert
	// (default 14.4 — the classic "2% of a 30-day budget in one hour").
	AlertBurn float64
}

func (c *Config) applyDefaults() {
	if c.FastWindow <= 0 {
		c.FastWindow = 5 * time.Minute
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = time.Hour
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 15 * time.Second
	}
	if c.AlertBurn <= 0 {
		c.AlertBurn = 14.4
	}
}

// Status is one objective's burn state at a point in time.
type Status struct {
	Name   string
	Target float64
	// FastBurn / SlowBurn are the error-budget burn rates over the two
	// windows: 1.0 spends exactly the budget, >1 overspends. 0 when the
	// window saw no events.
	FastBurn float64
	SlowBurn float64
	// Alerting reports both burns above Config.AlertBurn.
	Alerting bool
}

// snapshot is the counter state at one instant.
type snapshot struct {
	at         time.Time
	bad, total []float64
}

// Engine evaluates the configured objectives. Safe for concurrent use.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	ring []snapshot // chronological; pruned to the slow window
}

// New builds an Engine.
func New(cfg Config) *Engine {
	cfg.applyDefaults()
	return &Engine{cfg: cfg}
}

// AlertBurn returns the configured alerting burn rate.
func (e *Engine) AlertBurn() float64 { return e.cfg.AlertBurn }

// Status evaluates every objective at now. It reads the sources, retains
// the reading in the snapshot ring when SnapshotEvery has elapsed since
// the newest retained snapshot, and computes burn rates against the ring.
func (e *Engine) Status(now time.Time) []Status {
	e.mu.Lock()
	defer e.mu.Unlock()

	cur := snapshot{
		at:    now,
		bad:   make([]float64, len(e.cfg.Objectives)),
		total: make([]float64, len(e.cfg.Objectives)),
	}
	for i, o := range e.cfg.Objectives {
		cur.bad[i], cur.total[i] = o.Source()
	}
	if n := len(e.ring); n == 0 || now.Sub(e.ring[n-1].at) >= e.cfg.SnapshotEvery {
		e.ring = append(e.ring, cur)
		e.pruneLocked(now)
	}

	out := make([]Status, len(e.cfg.Objectives))
	for i, o := range e.cfg.Objectives {
		fast := e.burnLocked(cur, i, now, e.cfg.FastWindow, o.Target)
		slow := e.burnLocked(cur, i, now, e.cfg.SlowWindow, o.Target)
		out[i] = Status{
			Name:     o.Name,
			Target:   o.Target,
			FastBurn: fast,
			SlowBurn: slow,
			Alerting: fast > e.cfg.AlertBurn && slow > e.cfg.AlertBurn,
		}
	}
	return out
}

// burnLocked computes one objective's burn rate over [now-window, now]:
// the bad-event fraction across the window divided by the budgeted
// fraction (1 - target). The baseline is the newest retained snapshot at
// least window old; early in the process's life, before any snapshot is
// that old, the delta runs from process start (zero counters), which is
// the honest reading — there is no older data to dilute it.
func (e *Engine) burnLocked(cur snapshot, i int, now time.Time, window time.Duration, target float64) float64 {
	var base snapshot
	for _, sn := range e.ring {
		if now.Sub(sn.at) >= window {
			base = sn
		} else {
			break
		}
	}
	var baseBad, baseTotal float64
	if base.bad != nil {
		baseBad, baseTotal = base.bad[i], base.total[i]
	}
	dBad := cur.bad[i] - baseBad
	dTotal := cur.total[i] - baseTotal
	if dTotal <= 0 || dBad <= 0 {
		return 0
	}
	budget := 1 - target
	if budget <= 0 {
		budget = 1e-9 // a 100% target has no budget; any bad event burns hard
	}
	return (dBad / dTotal) / budget
}

// pruneLocked drops snapshots no burn window can reference, keeping the
// newest snapshot older than the slow window so the slow baseline
// survives.
func (e *Engine) pruneLocked(now time.Time) {
	cutoff := now.Add(-e.cfg.SlowWindow)
	for len(e.ring) >= 2 && !e.ring[1].at.After(cutoff) {
		e.ring = e.ring[1:]
	}
}
