package server

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"mvpears"
)

// handleStatusz renders a human-readable one-page fleet status on the
// admin listener: what is running (build, model), who it is serving with
// (ring membership, per-peer health), whether its detection quality is
// where calibration put it (drift verdicts, probe suspicion). Plain text
// on purpose — this is the page an operator reads over a terminal during
// an incident; the machine-readable faces are /metrics and /infoz.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	now := time.Now()
	st := s.state()

	fmt.Fprintf(w, "mvpearsd status\n===============\n\n")
	fmt.Fprintf(w, "build:    version=%s go=%s\n", s.buildVersion, runtime.Version())
	fp := st.modelFP
	if fp == "" {
		fp = "(cache off: unfingerprinted)"
	}
	fmt.Fprintf(w, "model:    fingerprint=%.16s reloads=%d\n", fp, s.Reloads())
	fmt.Fprintf(w, "uptime:   %s  draining=%v\n", now.Sub(s.start).Round(time.Second), s.draining.Load())
	if cs, ok := st.backend.(interface{ Cascade() mvpears.CascadeStatus }); ok {
		fmt.Fprintf(w, "%s\n", cs.Cascade()) // the boot log's line, re-derived after a reload
	}

	fmt.Fprintf(w, "\ncluster\n-------\n")
	if s.node == nil {
		fmt.Fprintf(w, "disabled\n")
	} else {
		fmt.Fprintf(w, "self: %s\nring: %v\n", s.node.Self(), s.node.Members())
		for _, p := range s.node.PeerStatuses() {
			state := "healthy"
			if p.Down {
				state = "down (backoff)"
			}
			fmt.Fprintf(w, "peer: %-24s %s\n", p.Addr, state)
		}
	}

	fmt.Fprintf(w, "\ndetection quality\n-----------------\n")
	for _, v := range s.driftMon.Evaluate() {
		state := "ok"
		switch {
		case v.Drifted:
			state = "DRIFTED"
		case !v.HasRef:
			state = "no reference"
		}
		fmt.Fprintf(w, "drift: %-24s %-5s score=%.3f threshold=%.3f samples=%-6d %s\n",
			v.Family, v.Kind, v.Score, v.Threshold, v.Samples, state)
	}
	fmt.Fprintf(w, "probe: suspicion=%.3f near_duplicates=%d\n",
		s.probe.Suspicion(), s.probe.NearDuplicates())
}
