package server

import (
	"errors"
	"net/http"
	"net/http/pprof"
	"runtime"
	"time"
)

// InfoJSON is the body of the admin listener's /infoz endpoint: enough to
// identify what is running (build, model, engine set) and how it is
// configured, without touching the serving port.
type InfoJSON struct {
	GoVersion        string   `json:"go_version"`
	BuildVCSRevision string   `json:"build_vcs_revision,omitempty"`
	BuildVCSTime     string   `json:"build_vcs_time,omitempty"`
	ModelFingerprint string   `json:"model_fingerprint,omitempty"`
	SampleRate       int      `json:"sample_rate"`
	Auxiliaries      []string `json:"auxiliaries"`
	Workers          int      `json:"workers"`
	QueueDepth       int      `json:"queue_depth"`
	CacheEnabled     bool     `json:"cache_enabled"`
	Goroutines       int      `json:"goroutines"`
	GOMAXPROCS       int      `json:"gomaxprocs"`
	UptimeSeconds    float64  `json:"uptime_seconds"`
	Draining         bool     `json:"draining"`
	// Reloads counts completed hot model reloads; ReloadEnabled reports
	// whether Config.Reload is wired.
	Reloads       uint64 `json:"reloads"`
	ReloadEnabled bool   `json:"reload_enabled"`
	// ClusterSelf is this replica's advertised peer address ("" when
	// clustering is off); ClusterPeers counts the currently healthy peers.
	ClusterSelf  string `json:"cluster_self,omitempty"`
	ClusterPeers int    `json:"cluster_peers,omitempty"`
}

// handleInfoz reports the build/model identity of the running daemon.
func (s *Server) handleInfoz(w http.ResponseWriter, r *http.Request) {
	st := s.state()
	info := InfoJSON{
		GoVersion:        runtime.Version(),
		ModelFingerprint: st.modelFP,
		SampleRate:       st.backend.SampleRate(),
		Auxiliaries:      st.auxNames,
		Workers:          s.cfg.Workers,
		QueueDepth:       s.cfg.QueueDepth,
		CacheEnabled:     s.vc != nil,
		Goroutines:       runtime.NumGoroutine(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		UptimeSeconds:    time.Since(s.start).Seconds(),
		Draining:         s.draining.Load(),
		Reloads:          s.Reloads(),
		ReloadEnabled:    s.cfg.Reload != nil,
	}
	if s.node != nil {
		info.ClusterSelf = s.node.Self()
		info.ClusterPeers = s.node.HealthyPeers()
	}
	if rev, at := buildVCS(); rev != "dev" {
		info.BuildVCSRevision, info.BuildVCSTime = rev, at
	}
	writeJSON(w, http.StatusOK, info)
}

// ReloadJSON is the body of a successful POST /reloadz.
type ReloadJSON struct {
	Reloaded         bool   `json:"reloaded"`
	ModelFingerprint string `json:"model_fingerprint,omitempty"`
	Reloads          uint64 `json:"reloads"`
}

// handleReloadz triggers a hot model reload (POST only). 404 when reload
// is not configured, 409 when one is already running, 500 when the
// replacement failed to load (the old model keeps serving).
func (s *Server) handleReloadz(w http.ResponseWriter, r *http.Request) {
	switch err := s.Reload(); {
	case err == nil:
		writeJSON(w, http.StatusOK, ReloadJSON{
			Reloaded:         true,
			ModelFingerprint: s.state().modelFP,
			Reloads:          s.Reloads(),
		})
	case errors.Is(err, ErrReloadNotConfigured):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrReloadInProgress):
		writeError(w, http.StatusConflict, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// AdminHandler builds the operator-only endpoint set, meant to be served
// on a separate listener (mvpearsd -admin-addr) so profiling and
// introspection never share the public serving port:
//
//	GET  /debug/pprof/...  net/http/pprof profiles
//	GET  /infoz            build + model + runtime identity (JSON)
//	GET  /statusz          human-readable fleet/drift status page
//	GET  /metrics          the same Prometheus exposition as the serving port
//	GET  /healthz          liveness
//	POST /reloadz          zero-downtime hot model reload
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/infoz", s.handleInfoz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/reloadz", postOnly("use POST to trigger a reload", s.handleReloadz))
	return mux
}
