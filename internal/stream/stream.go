// Package stream is the streaming detection subsystem: it accepts audio
// incrementally, re-transcribes a sliding window through the existing
// ensemble to emit provisional verdicts while the speaker is still
// talking, and produces a final whole-clip verdict at end-of-stream that
// is bit-identical to the batch detector's.
//
// The smart-speaker scenario the paper motivates receives audio as a
// stream; a verdict that waits for end-of-utterance gives a wake-word
// attack a free window. Streaming detection closes it two ways:
//
//   - Provisional verdicts: every Hop samples, the last Window samples
//     are decoded per engine (from frame-incremental state — nothing is
//     re-extracted), scored, and classified. Clients see the ensemble's
//     opinion with sub-second latency.
//   - Early exit: when any auxiliary's windowed similarity falls
//     decisively below its calibrated floor (detector.CalibrateFloors,
//     the mirror image of the cascade's no-flip margins) for MinWindows
//     consecutive windows, the session is flagged adversarial on the
//     spot and the client is told to stop sending.
//
// Sessions live in a bounded table with idle eviction and max-session
// backpressure; one session is owned by one connection goroutine, while
// the Manager is safe for concurrent use.
package stream

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/detector"
	"mvpears/internal/obs"
)

// Sentinel errors mapped to wire statuses by the server layer.
var (
	// ErrTooManySessions is returned by Open when the session table is
	// full (HTTP 429).
	ErrTooManySessions = errors.New("stream: too many open sessions")
	// ErrSessionClosed is returned by operations on a closed or evicted
	// session.
	ErrSessionClosed = errors.New("stream: session closed")
	// ErrTooLong is returned by Push when the accumulated audio would
	// exceed MaxDuration.
	ErrTooLong = errors.New("stream: clip exceeds maximum stream duration")
)

// Defaults for the zero Config fields a daemon exposes as flags.
const (
	DefaultWindow      = time.Second
	DefaultHop         = 250 * time.Millisecond
	DefaultMaxSessions = 64
	DefaultIdleTimeout = 30 * time.Second
)

// Config configures a Manager.
type Config struct {
	// Detector supplies the engines, similarity method and classifier.
	// Streaming always runs the full ensemble (never the cascade
	// short-circuit) so final verdicts match detector.Detect exactly.
	Detector *detector.Detector
	// SampleRate is the only rate sessions accept; streaming does not
	// resample (a chunk boundary is not a resampling boundary).
	SampleRate int
	// Window and Hop are the sliding-window geometry in samples
	// (defaults: DefaultWindow and DefaultHop of audio).
	Window int
	Hop    int
	// MaxSessions bounds the session table. Open returns
	// ErrTooManySessions beyond it.
	MaxSessions int
	// IdleTimeout evicts sessions with no Push/Finish activity.
	IdleTimeout time.Duration
	// MaxDuration bounds the audio a single session may accumulate
	// (default 2 minutes) — sessions buffer the whole clip for the final
	// whole-clip energy gate, verdict and cache probe.
	MaxDuration time.Duration
	// Floors are the per-auxiliary early-exit floors in configured
	// auxiliary order (detector.CalibrateFloors). Nil disables early
	// exit; provisional verdicts still flow.
	Floors []float64
	// MinWindows is how many consecutive offending windows it takes to
	// flag (default Window/Hop + 1). The default is geometric: a benign
	// phrase-boundary mistranscription stays inside the sliding window
	// for Window/Hop consecutive hops, so a run must outlast one full
	// window-length of audio before it can be a sustained divergence
	// rather than one bad region sliding through.
	MinWindows int
	// Hooks receive lifecycle and per-window events (metrics wiring).
	Hooks Hooks
}

// Hooks are optional observation points; nil funcs are skipped.
type Hooks struct {
	SessionOpened   func()
	SessionClosed   func(evicted bool)
	SessionRejected func()
	// Window fires per provisional verdict with its processing duration.
	Window func(adversarial, earlyExit bool, d time.Duration)
}

func (c *Config) withDefaults() error {
	if c.Detector == nil {
		return fmt.Errorf("stream: config needs a detector")
	}
	if c.SampleRate <= 0 {
		return fmt.Errorf("stream: sample rate %d must be positive", c.SampleRate)
	}
	if c.Window == 0 {
		c.Window = int(DefaultWindow.Seconds() * float64(c.SampleRate))
	}
	if c.Hop == 0 {
		c.Hop = int(DefaultHop.Seconds() * float64(c.SampleRate))
	}
	if c.Window <= 0 || c.Hop <= 0 {
		return fmt.Errorf("stream: window %d and hop %d must be positive", c.Window, c.Hop)
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("stream: negative session limit %d", c.MaxSessions)
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.MaxDuration == 0 {
		c.MaxDuration = 2 * time.Minute
	}
	if len(c.Floors) != 0 && len(c.Floors) != len(c.Detector.Auxiliaries) {
		return fmt.Errorf("stream: %d floors for %d auxiliaries", len(c.Floors), len(c.Detector.Auxiliaries))
	}
	if c.MinWindows == 0 {
		c.MinWindows = c.Window/c.Hop + 1
	}
	return nil
}

// Manager owns the bounded session table.
type Manager struct {
	cfg        Config
	maxSamples int

	mu       sync.Mutex
	sessions map[uint64]*Session
	nextID   uint64
	closed   bool
	// free holds the emptied streams of closed sessions (asr's
	// EnsembleStream.Reset: buffers, no content) for the next Open, at
	// most MaxSessions of them; spare is the fewest it held since the
	// janitor last looked, which is how many nobody needed.
	free  []*asr.EnsembleStream
	spare int

	stopJanitor chan struct{}
	janitorDone chan struct{}
}

// NewManager validates the configuration and starts the idle-eviction
// janitor.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:         cfg,
		maxSamples:  int(cfg.MaxDuration.Seconds() * float64(cfg.SampleRate)),
		sessions:    make(map[uint64]*Session),
		stopJanitor: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go m.janitor()
	return m, nil
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// OpenSessions returns the current session count (the gauge metric).
func (m *Manager) OpenSessions() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// Open admits a new session, or returns ErrTooManySessions when the
// table is full — streaming backpressure is a hard reject, not a queue:
// live audio cannot usefully wait.
func (m *Manager) Open() (*Session, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		m.hook(m.cfg.Hooks.SessionRejected)
		return nil, ErrTooManySessions
	}
	var es *asr.EnsembleStream
	if n := len(m.free) - 1; n >= 0 {
		es, m.free = m.free[n], m.free[:n]
		m.spare = min(m.spare, n)
	} else {
		d := m.cfg.Detector
		var err error
		es, err = asr.NewEnsembleStream(append([]asr.Recognizer{d.Target}, d.Auxiliaries...), m.cfg.SampleRate)
		if err != nil {
			m.mu.Unlock()
			return nil, err
		}
	}
	m.nextID++
	s := &Session{
		m:          m,
		id:         m.nextID,
		es:         es,
		lastActive: time.Now(),
		nextWindow: m.cfg.Window,
	}
	m.sessions[s.id] = s
	m.mu.Unlock()
	m.hook(m.cfg.Hooks.SessionOpened)
	return s, nil
}

// Close shuts the manager down: the janitor stops and every open session
// is closed. Idempotent.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.free = nil
	open := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		open = append(open, s)
	}
	m.mu.Unlock()
	close(m.stopJanitor)
	<-m.janitorDone
	for _, s := range open {
		s.close(false, false)
	}
}

// Retire closes the manager once its open sessions have ended, after
// grace, or when stop is closed, whichever comes first, and returns then:
// the end of a manager a new model superseded, whose live sessions finish
// on the old model.
func (m *Manager) Retire(grace time.Duration, stop <-chan struct{}) {
	defer m.Close()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(grace)
	for m.OpenSessions() > 0 {
		select {
		case <-tick.C:
		case <-deadline:
			return
		case <-stop:
			return
		}
	}
}

func (m *Manager) hook(f func()) {
	if f != nil {
		f()
	}
}

// remove detaches a session from the table (no-op if already gone).
func (m *Manager) remove(s *Session, evicted bool) {
	m.mu.Lock()
	_, present := m.sessions[s.id]
	delete(m.sessions, s.id)
	m.mu.Unlock()
	if present && m.cfg.Hooks.SessionClosed != nil {
		m.cfg.Hooks.SessionClosed(evicted)
	}
}

// recycle takes back the stream of a session that is done with it.
func (m *Manager) recycle(es *asr.EnsembleStream) {
	es.Reset()
	m.mu.Lock()
	if !m.closed && len(m.free) < m.cfg.MaxSessions {
		m.free = append(m.free, es)
	}
	m.mu.Unlock()
}

// janitor evicts idle sessions — a streaming client that stalls without
// closing must not pin a session-table slot (and its buffered audio) —
// and lets go of the free streams nobody took since its last pass, so
// what a burst of sessions leaves behind does not outlive it for long.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	period := m.cfg.IdleTimeout / 4
	if period < 250*time.Millisecond {
		period = 250 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-m.stopJanitor:
			return
		case <-t.C:
			cutoff := time.Now().Add(-m.cfg.IdleTimeout)
			m.mu.Lock()
			m.free = slices.Delete(m.free, 0, m.spare)
			m.spare = len(m.free)
			var idle []*Session
			for _, s := range m.sessions {
				s.mu.Lock()
				if s.lastActive.Before(cutoff) {
					idle = append(idle, s)
				}
				s.mu.Unlock()
			}
			m.mu.Unlock()
			for _, s := range idle {
				s.close(false, true)
			}
		}
	}
}

// Window is one provisional sliding-window verdict.
type Window struct {
	// Index counts emitted windows from 0; Start/End are the sample
	// range [Start,End) the verdict covers.
	Index      int
	Start, End int
	// Target and Aux are the windowed transcriptions (configured
	// auxiliary order); Scores the similarity vector the classifier saw.
	Target string
	Aux    []string
	Scores []float64
	// Adversarial is the provisional classifier verdict for this window.
	Adversarial bool
	// EarlyExit is true on the window that tripped the early-exit floor:
	// the session is now flagged and the client should stop sending.
	EarlyExit bool
	// Elapsed is the processing cost of this window (the latency budget:
	// it must stay under Hop/SampleRate seconds for real-time operation).
	// It includes the feedforward engines' first forward of every frame
	// the window is the first to read ungated; Push pays only for the
	// front end and the engines whose state crosses frames.
	Elapsed time.Duration
}

// EarlyExit describes why a session was flagged before end-of-stream.
type EarlyExit struct {
	// Window is the index of the tripping window, Engine the auxiliary
	// whose Score fell below Floor.
	Window int
	Engine string
	Score  float64
	Floor  float64
	// AudioTime is the stream position at the flag — the detection
	// latency an attacker would experience, counted in audio time.
	AudioTime time.Duration
}

// Final is the end-of-stream result.
type Final struct {
	Decision detector.Decision
	// Windows is how many provisional verdicts were emitted; Duration
	// the audio length; Samples the accumulated clip (for the verdict
	// cache probe — callers must not mutate it). Samples is the session's
	// own buffer: valid until Session.Close, which hands it to the next
	// session.
	Windows   int
	Duration  time.Duration
	Samples   []float64
	EarlyExit *EarlyExit
}

// Session is one live audio stream. All methods are safe for concurrent
// use, but the expected owner is a single connection goroutine.
type Session struct {
	m  *Manager
	id uint64

	mu sync.Mutex
	// es is the session's stream until Close (or eviction) returns it to
	// the manager; total survives it.
	es         *asr.EnsembleStream
	total      int
	lastActive time.Time
	closed     bool
	finalized  bool
	nextWindow int // sample position of the next window edge
	windows    int
	offending  int // consecutive windows below an early-exit floor
	earlyExit  *EarlyExit
}

// ID returns the session's numeric identifier (log correlation).
func (s *Session) ID() uint64 { return s.id }

// Total returns the samples ingested so far.
func (s *Session) Total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Flagged reports whether the early-exit path has fired.
func (s *Session) Flagged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.earlyExit != nil
}

// Reserve sizes the session's sample buffer for a clip of the given
// length (a WAV header's declared size), capped at MaxDuration, so the
// buffer is allocated once instead of regrown as chunks arrive.
func (s *Session) Reserve(samples int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed && !s.finalized {
		s.es.Reserve(min(samples, s.m.maxSamples))
	}
}

// Push ingests a chunk of audio and returns the provisional verdicts for
// every window edge the chunk crossed. After an early exit the session
// keeps accepting audio (the client may still want the final verdict)
// but stops evaluating windows.
func (s *Session) Push(ctx context.Context, samples []float64) ([]Window, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.finalized {
		return nil, fmt.Errorf("stream: Push after Finish")
	}
	s.lastActive = time.Now()
	if s.total+len(samples) > s.m.maxSamples {
		return nil, fmt.Errorf("%w (%v)", ErrTooLong, s.m.cfg.MaxDuration)
	}
	if err := s.es.Push(samples); err != nil {
		return nil, err
	}
	s.total += len(samples)
	var out []Window
	for s.nextWindow <= s.total {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if s.earlyExit != nil {
			// Flagged: windows stop, but keep the edge advancing so a
			// client that ignores the stop signal doesn't buffer work.
			s.nextWindow += s.m.cfg.Hop
			continue
		}
		w, err := s.evalWindow(ctx, s.nextWindow)
		if err != nil {
			return out, err
		}
		s.nextWindow += s.m.cfg.Hop
		out = append(out, w)
	}
	s.lastActive = time.Now()
	return out, nil
}

// transcribe collects every engine's text (target first) from text,
// with a span per engine and one over all of them.
func (s *Session) transcribe(trace *obs.Trace, text func(i int) (string, error)) (detector.Transcriptions, error) {
	d := s.m.cfg.Detector
	texts := make([]string, 1+len(d.Auxiliaries))
	start := time.Now()
	for i := range texts {
		engStart := time.Now()
		var err error
		if texts[i], err = text(i); err != nil {
			return detector.Transcriptions{}, err
		}
		name := d.Target.Name()
		if i > 0 {
			name = d.Auxiliaries[i-1].Name()
		}
		trace.Record(obs.StageTranscribe, name, engStart)
	}
	trace.Record(obs.StageTranscribe, "", start)
	return detector.Transcriptions{Target: texts[0], Aux: texts[1:]}, nil
}

// evalWindow runs the ensemble over the window ending at sample pos and
// classifies the similarity vector. Caller holds s.mu.
func (s *Session) evalWindow(ctx context.Context, pos int) (Window, error) {
	cfg := &s.m.cfg
	trace := obs.TraceFrom(ctx)
	a := max(0, pos-cfg.Window)
	started := time.Now()
	tr, err := s.transcribe(trace, func(i int) (string, error) { return s.es.WindowText(i, a, pos) })
	if err != nil {
		return Window{}, fmt.Errorf("stream: window [%d,%d): %w", a, pos, err)
	}
	dec, err := cfg.Detector.Decide(trace, tr)
	if err != nil {
		return Window{}, err
	}
	scores := dec.Scores

	w := Window{
		Index:       s.windows,
		Start:       a,
		End:         pos,
		Target:      tr.Target,
		Aux:         tr.Aux,
		Scores:      scores,
		Adversarial: dec.Adversarial,
		Elapsed:     time.Since(started),
	}
	s.windows++

	// Early exit: the window classifier calls the vector adversarial AND
	// an auxiliary scores decisively below its calibrated floor, while
	// the target actually hears speech. The conjunction matters: floors
	// are calibrated on whole-clip scores, and windowed transcriptions
	// are noisy at phrase boundaries — a single engine mishearing one
	// window can dip under its floor while the ensemble still agrees.
	// One window can be a boundary artifact either way; MinWindows
	// consecutive ones flag the session.
	if len(cfg.Floors) > 0 && dec.Adversarial && tr.Target != "" {
		worst, worstGap := -1, 0.0
		for i, f := range cfg.Floors {
			if gap := f - scores[i]; scores[i] < f && gap > worstGap {
				worst, worstGap = i, gap
			}
		}
		if worst >= 0 {
			s.offending++
			if s.offending >= cfg.MinWindows {
				s.earlyExit = &EarlyExit{
					Window:    w.Index,
					Engine:    cfg.Detector.Auxiliaries[worst].Name(),
					Score:     scores[worst],
					Floor:     cfg.Floors[worst],
					AudioTime: SampleDuration(pos, cfg.SampleRate),
				}
				w.EarlyExit = true
				w.Adversarial = true
			}
		} else {
			s.offending = 0
		}
	}
	if cfg.Hooks.Window != nil {
		cfg.Hooks.Window(w.Adversarial, w.EarlyExit, w.Elapsed)
	}
	return w, nil
}

// Finish seals the stream and produces the final whole-clip verdict:
// the complete clip's transcriptions, from the incrementally built state,
// through detector.Decide, as detector.Detect does. The session leaves the table; its buffers (Final.Samples among
// them) stay its own until Close.
func (s *Session) Finish(ctx context.Context) (*Final, error) {
	fin, err := s.finish(ctx)
	if err == nil {
		s.m.remove(s, false)
	}
	return fin, err
}

func (s *Session) finish(ctx context.Context) (*Final, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.finalized {
		return nil, fmt.Errorf("stream: Finish called twice")
	}
	s.lastActive = time.Now()
	trace := obs.TraceFrom(ctx)
	if err := s.es.Finalize(); err != nil {
		return nil, err
	}
	start := time.Now()
	tr, err := s.transcribe(trace, func(i int) (string, error) { return s.es.FinalText(ctx, i) })
	if err != nil {
		return nil, fmt.Errorf("stream: final transcription: %w", err)
	}
	recognition := time.Since(start)
	dec, err := s.m.cfg.Detector.Decide(trace, tr)
	if err != nil {
		return nil, err
	}
	dec.Timing.Recognition = recognition
	s.finalized, s.closed = true, true
	return &Final{
		Decision:  dec,
		Windows:   s.windows,
		Duration:  SampleDuration(s.total, s.m.cfg.SampleRate),
		Samples:   s.es.Samples(),
		EarlyExit: s.earlyExit,
	}, nil
}

// Close ends the session — abandoning it without a final verdict when the
// client went away before Finish — and returns its buffers to the manager.
// Idempotent.
func (s *Session) Close() { s.close(true, false) }

// close is Close for the owner, and the manager's eviction or shutdown
// otherwise. The manager leaves alone a session its owner has finished or
// closed: what Finish returned stays valid until the owner's Close.
func (s *Session) close(byOwner, evicted bool) {
	s.mu.Lock()
	if s.closed && !byOwner {
		s.mu.Unlock()
		return
	}
	es, open := s.es, !s.closed
	s.es, s.closed = nil, true
	s.mu.Unlock()
	if open {
		s.m.remove(s, evicted)
	}
	if es != nil {
		s.m.recycle(es)
	}
}

// SampleDuration is the audio time of n samples at rate.
func SampleDuration(n, rate int) time.Duration {
	return time.Duration(float64(n) / float64(rate) * float64(time.Second))
}
