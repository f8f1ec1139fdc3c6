package server

import (
	"errors"
	"fmt"
	"time"

	"mvpears/internal/stream"
)

// Hot model reload. The per-model identity of the server — backend,
// fingerprint, auxiliary names, stream manager — lives in one immutable
// backendState snapshot behind an atomic pointer. A request loads the
// snapshot once and uses it throughout, so a reload mid-request is
// invisible: in-flight work finishes on the model it started with, new
// requests pick up the new model, and nothing is ever dropped.
//
// Cache consistency across the swap needs no epoch protocol: verdict
// keys are prefixed with the model fingerprint, so the new model's keys
// simply never match the old entries (locally or on any peer), and the
// stale entries age out under LRU pressure. /readyz answers 503 while
// the replacement artifact is loading, steering fleet load balancers
// toward peers during the CPU-heavy load — but requests that do arrive
// still serve on the old model.

// backendState is one model's worth of serving identity. Immutable
// after construction; swapped wholesale by Reload.
type backendState struct {
	backend Backend
	// modelFP prefixes every verdict-cache key ("" when caching is off).
	modelFP string
	// auxNames caches backend.AuxiliaryNames(): the per-call slice
	// allocation is measurable on the cache-hit path.
	auxNames []string
	// stream manages live streaming sessions; nil when streaming is off.
	stream *stream.Manager
}

// state snapshots the current backend identity. Handlers call it once
// per request and thread the snapshot, never re-loading mid-request.
func (s *Server) state() *backendState { return s.be.Load() }

// ErrReloadNotConfigured is returned by Reload when Config.Reload is nil.
var ErrReloadNotConfigured = errors.New("server: reload not configured (set Config.Reload)")

// ErrReloadInProgress is returned by Reload while another reload runs.
var ErrReloadInProgress = errors.New("server: a reload is already in progress")

// buildState assembles a backendState around backend, fingerprinting it
// when the verdict cache is enabled and building the stream manager (with
// the server's metric hooks) when streaming is configured.
func (s *Server) buildState(backend Backend) (*backendState, error) {
	st := &backendState{
		backend:  backend,
		auxNames: backend.AuxiliaryNames(),
	}
	if s.vc != nil {
		// With the cache (and possibly a cluster) live, a fingerprint is
		// non-negotiable: unprefixed keys could serve another model's
		// verdicts.
		fper, ok := backend.(ModelFingerprinter)
		if !ok {
			return nil, errors.New("server: the verdict cache is enabled but the backend exposes no model fingerprint")
		}
		fp, err := fper.ModelFingerprint()
		if err != nil {
			return nil, fmt.Errorf("server: fingerprinting model: %w", err)
		}
		st.modelFP = fp
	}
	if s.cfg.Stream != nil {
		opts := *s.cfg.Stream
		opts.Hooks = stream.Hooks{
			SessionOpened: func() {
				s.streamSessions.Add(1)
				s.m.counter(mStreamSessions).Inc()
			},
			SessionRejected: func() { s.m.counter(mRejected, rejectStreamSessions).Inc() },
			SessionClosed: func(evicted bool) {
				s.streamSessions.Add(-1)
				if evicted {
					s.m.counter(mStreamEvicted).Inc()
				}
			},
			Window: func(adversarial, earlyExit bool, d time.Duration) {
				s.m.counter(mStreamWindows, verdictOf(adversarial)).Inc()
				if earlyExit {
					s.m.counter(mStreamEarlyExits).Inc()
				}
				s.m.histogram(mStreamWindowSeconds).Observe(d.Seconds())
			},
		}
		m, err := backend.NewStreamManager(opts)
		if err != nil {
			return nil, fmt.Errorf("server: building stream manager: %w", err)
		}
		st.stream = m
	}
	// Install the model's calibration-time drift reference (when it ships
	// one) so live score distributions are compared against the model
	// actually serving. A reload replaces the reference atomically with the
	// backend swap's visibility.
	if ref := backend.DriftReference(); ref != nil {
		if err := s.driftMon.SetReference(ref); err != nil {
			return nil, fmt.Errorf("server: installing drift reference: %w", err)
		}
	}
	return st, nil
}

// Reload loads a fresh backend via Config.Reload and swaps it in with
// zero downtime: the expensive load happens off the hot path under
// /readyz 503 gating, the swap is one atomic pointer store, in-flight
// requests finish on the old model, and the fingerprint change makes the
// new model miss (and eventually evict) every stale cache entry —
// locally and fleet-wide — with no invalidation protocol.
func (s *Server) Reload() error {
	if s.cfg.Reload == nil {
		return ErrReloadNotConfigured
	}
	if !s.reloadInProgress.CompareAndSwap(false, true) {
		return ErrReloadInProgress
	}
	defer s.reloadInProgress.Store(false)
	backend, err := s.cfg.Reload()
	if err != nil {
		s.m.counter(mReloadFailures).Inc()
		return fmt.Errorf("server: loading replacement backend: %w", err)
	}
	st, err := s.buildState(backend)
	if err != nil {
		s.m.counter(mReloadFailures).Inc()
		return err
	}
	old := s.be.Swap(st)
	s.m.counter(mReloads).Inc()
	if old != nil && old.stream != nil {
		// Live streaming sessions finish on the old model's manager, which
		// then closes; Shutdown ends the wait early (see Server.retiring).
		s.retireMu.Lock()
		select {
		case <-s.stopping: // Shutdown has begun: cut them now
			old.stream.Close()
		default:
			s.retiring.Add(1)
			go func() {
				defer s.retiring.Done()
				old.stream.Retire(retireStreamManagerGrace, s.stopping)
			}()
		}
		s.retireMu.Unlock()
	}
	if st.modelFP != "" && old != nil && st.modelFP == old.modelFP {
		s.cfg.Logger.Printf("mvpearsd: model reloaded (fingerprint unchanged %.12s; cache entries remain valid)", st.modelFP)
	} else {
		s.cfg.Logger.Printf("mvpearsd: model reloaded, fingerprint %.12s (stale cache entries now unreachable)", st.modelFP)
	}
	return nil
}

// Reloads reports how many reloads have completed (for /infoz).
func (s *Server) Reloads() uint64 { return s.m.counter(mReloads).Value() }

// ModelFingerprint reports the current model's fingerprint ("" when the
// cache — and so fingerprinting — is off).
func (s *Server) ModelFingerprint() string { return s.state().modelFP }

// retireStreamManagerGrace bounds how long a superseded stream manager
// waits for its live sessions before being closed anyway.
const retireStreamManagerGrace = 2 * time.Minute
