package mvpears

import (
	"fmt"
	"time"

	"mvpears/internal/stream"
)

// Streaming detection: the System-level wiring of internal/stream. A
// StreamManager owns live audio sessions; each session re-transcribes a
// sliding window through the ensemble for provisional verdicts, flags
// adversarial input early when a calibrated floor is crossed, and
// produces a final whole-clip verdict identical to Detect's.

// Public names for the streaming types, so callers outside the module
// can hold what NewStreamManager and Session.Finish return.
type (
	StreamManager = stream.Manager
	StreamSession = stream.Session
	StreamWindow  = stream.Window
	StreamFinal   = stream.Final
)

// StreamOptions configures NewStreamManager. Zero values take the
// defaults documented on stream.Config.
type StreamOptions struct {
	Window      int // samples
	Hop         int // samples
	MaxSessions int
	IdleTimeout time.Duration
	MaxDuration time.Duration
	MinWindows  int
	// DisableEarlyExit keeps provisional verdicts flowing but never flags
	// before end-of-stream. Early exit is also silently disabled when the
	// System has no cached training pools (e.g. loaded WithoutTraining)
	// since the floors cannot be calibrated.
	DisableEarlyExit bool
	// FloorSlack widens the gap below the lowest classifier-benign
	// calibration score that the early exit requires (default 0.05).
	FloorSlack float64
	// Hooks observe session lifecycle and per-window events.
	Hooks stream.Hooks
}

// NewStreamManager builds the streaming session manager for this System.
// When training pools are available and early exit is not disabled, the
// per-auxiliary floors are calibrated with Detector.CalibrateFloors — the
// mirror image of the cascade's no-flip margins.
func (s *System) NewStreamManager(opts StreamOptions) (*stream.Manager, error) {
	cfg := stream.Config{
		Detector:    s.det,
		SampleRate:  s.engines.SampleRate,
		Window:      opts.Window,
		Hop:         opts.Hop,
		MaxSessions: opts.MaxSessions,
		IdleTimeout: opts.IdleTimeout,
		MaxDuration: opts.MaxDuration,
		MinWindows:  opts.MinWindows,
		Hooks:       opts.Hooks,
	}
	if !opts.DisableEarlyExit && s.pools != nil {
		floors, err := s.det.CalibrateFloors(
			columnsToRows(s.pools.Benign),
			columnsToRows(s.pools.AE),
			opts.FloorSlack,
		)
		if err != nil {
			return nil, fmt.Errorf("mvpears: calibrating early-exit floors: %w", err)
		}
		cfg.Floors = floors
	}
	m, err := stream.NewManager(cfg)
	if err != nil {
		return nil, fmt.Errorf("mvpears: %w", err)
	}
	return m, nil
}

// TargetName returns the target ASR engine's name (the key its
// transcription is reported under).
func (s *System) TargetName() string { return s.det.Target.Name() }

// DetectionFromStream converts a streaming session's final result into
// the public Detection form — the same shape Detect returns, so verdict
// caching, explanation and audit logging treat streamed and batch
// verdicts identically.
func (s *System) DetectionFromStream(fin *stream.Final) *Detection {
	return s.toDetection(fin.Decision)
}
