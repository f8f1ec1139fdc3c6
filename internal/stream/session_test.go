package stream

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears/internal/asr"
	"mvpears/internal/audio"
	"mvpears/internal/detector"
	"mvpears/internal/speech"
)

var (
	realOnce sync.Once
	realSet  *asr.EngineSet
	realErr  error
)

// realDetector is the quick-scale DS0 + {DS1, GCS, AT} ensemble behind a
// classifier trained on synthetic score rows: real engines, so sessions
// exercise the real streaming state.
func realDetector(t testing.TB) (*detector.Detector, *asr.EngineSet) {
	t.Helper()
	realOnce.Do(func() { realSet, realErr = asr.BuildEngines(asr.QuickTrainConfig()) })
	if realErr != nil {
		t.Fatal(realErr)
	}
	d, err := detector.New(realSet.DS0, []asr.Recognizer{realSet.DS1, realSet.GCS, realSet.AT})
	if err != nil {
		t.Fatal(err)
	}
	benign, ae := rows(200, 0.95, 0.03, 1), rows(200, 0.35, 0.08, 2)
	for i := range benign {
		benign[i], ae[i] = append(benign[i], benign[i][0]), append(ae[i], ae[i][0])
	}
	if err := d.Train(benign, ae); err != nil {
		t.Fatal(err)
	}
	return d, realSet
}

// threeUtterances concatenates three seeded utterances (≈ 4.5 s), the
// shape of the benchmark's stream_live sessions.
func threeUtterances(t testing.TB, rate int, seed int64) []float64 {
	t.Helper()
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(rate), 3, seed)
	if err != nil {
		t.Fatal(err)
	}
	var x []float64
	for _, u := range utts {
		x = append(x, u.Clip.Samples...)
	}
	return x
}

// BenchmarkStreamSession runs whole sessions through a Manager the way a
// connection does — Open, 100 ms Pushes, Finish, Close — and reports what
// the frozen replay cannot see: the cost per hop with the session's
// buffers coming from the previous session, and allocations per window.
func BenchmarkStreamSession(b *testing.B) {
	d, set := realDetector(b)
	m, err := NewManager(Config{Detector: d, SampleRate: set.SampleRate})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	x := threeUtterances(b, set.SampleRate, 77)
	chunk := set.SampleRate / 10
	ctx := context.Background()
	session := func() (windows int) {
		s, err := m.Open()
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		for off := 0; off < len(x); off += chunk {
			ws, err := s.Push(ctx, x[off:min(off+chunk, len(x))])
			if err != nil {
				b.Fatal(err)
			}
			windows += len(ws)
		}
		fin, err := s.Finish(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if fin.Windows != windows || len(fin.Samples) != len(x) {
			b.Fatalf("final reports %d windows over %d samples, pushed %d over %d", fin.Windows, len(fin.Samples), windows, len(x))
		}
		return windows
	}
	session() // the steady state: buffers exist
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	windows := 0
	for i := 0; i < b.N; i++ {
		windows += session()
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(elapsed.Microseconds())/float64(windows), "µs/hop")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(windows), "allocs/window")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(windows), "KB/window")
}

// TestSessionBuffersNeverShared drives 200 real-engine sessions over 8
// goroutines — a seeded mix of finished, abandoned, janitor-evicted and
// still-open-at-Manager.Close ones — against one Manager whose streams
// circulate through its free list. A stream handed to a new session must
// have been given up by its previous one; what Finish returns must be the
// audio pushed and the batch verdict, however many sessions the buffers
// served before; the free list stays within MaxSessions; and nothing is
// left running. Run under -race it also proves no buffer is written by
// two owners.
func TestSessionBuffersNeverShared(t *testing.T) {
	d, set := realDetector(t)
	clips := make([][]float64, 4)
	for i := range clips {
		clips[i] = threeUtterances(t, set.SampleRate, int64(100+i))[:set.SampleRate*(2+i)/2]
	}
	baseline := runtime.NumGoroutine()
	const maxSessions = 16
	// The janitor evicts a session idle for 300 ms, and a Push counts as
	// activity from its start: on a loaded machine (the race detector, a
	// few packages tested side by side) a long Push or a stalled
	// goroutine lets it evict a session this test is still driving. Such
	// an eviction is a legitimate end — the session must then hold no
	// stream, and every eviction the test takes for one must have been
	// announced through Hooks.SessionClosed(evicted=true).
	var evictions atomic.Int64
	cfg := Config{Detector: d, SampleRate: set.SampleRate, MaxSessions: maxSessions, IdleTimeout: 300 * time.Millisecond,
		Hooks: Hooks{SessionClosed: func(evicted bool) {
			if evicted {
				evictions.Add(1)
			}
		}}}
	// evicted reports whether an operation on s failed because the
	// janitor took s; nothing else closes a session before m.Close.
	evicted := func(s *Session, err error) bool {
		if !errors.Is(err, ErrSessionClosed) {
			return false
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed || s.es != nil {
			t.Errorf("session %d: %v, but it is open or still holds its stream", s.ID(), err)
		}
		return true
	}
	// An eviction that loses the race with Finish must not take the
	// buffers from under the Final. A real eviction before Finish ends
	// the attempt; the next one starts on a fresh manager.
	var m *Manager
	for attempt := 1; ; attempt++ {
		var err error
		if m, err = NewManager(cfg); err != nil {
			t.Fatal(err)
		}
		before := evictions.Load()
		s, err := m.Open()
		if err != nil {
			t.Fatal(err)
		}
		var fin *Final
		if _, err = s.Push(context.Background(), clips[0]); err == nil {
			fin, err = s.Finish(context.Background())
		}
		if evicted(s, err) && evictions.Load() > before && attempt < 10 {
			m.Close()
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		s.close(false, true)
		m.mu.Lock()
		free := len(m.free)
		m.mu.Unlock()
		if s.es == nil || free != 0 || !slices.Equal(fin.Samples, clips[0]) {
			t.Fatal("a late eviction released a finished session's buffers before its owner's Close")
		}
		s.Close()
		m.mu.Lock()
		free = len(m.free)
		m.mu.Unlock()
		if s.es != nil || free != 1 {
			t.Fatalf("Close after Finish returned %d streams to the manager, want 1", free)
		}
		break
	}

	var (
		mu       sync.Mutex
		owner    = map[*asr.EnsembleStream]*Session{}
		leftOpen []*Session
		recycled int
		wg       sync.WaitGroup
	)
	seenEvicted := 0 // sessions this test took as evicted
	ended := func() {
		mu.Lock()
		seenEvicted++
		mu.Unlock()
	}
	claim := func(s *Session) bool {
		s.mu.Lock()
		es := s.es
		s.mu.Unlock()
		if es == nil && evicted(s, ErrSessionClosed) {
			return false // evicted between Open and here
		}
		mu.Lock()
		defer mu.Unlock()
		if prev := owner[es]; prev != nil {
			recycled++
			prev.mu.Lock()
			if prev.es == es || !prev.closed {
				t.Errorf("session %d was handed the stream session %d still holds", s.ID(), prev.ID())
			}
			prev.mu.Unlock()
		}
		owner[es] = s
		m.mu.Lock()
		if len(m.free) > maxSessions {
			t.Errorf("manager retains %d streams, limit %d", len(m.free), maxSessions)
		}
		m.mu.Unlock()
		return true
	}
	ctx := context.Background()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 0; n < 25; n++ {
				s, err := m.Open()
				if err != nil {
					t.Error(err)
					return
				}
				if !claim(s) {
					ended()
					continue
				}
				x := clips[rng.Intn(len(clips))]
				kind := rng.Intn(10)
				if n == 24 {
					kind = 9
				}
				upTo := len(x)
				if kind >= 6 {
					upTo = 1 + rng.Intn(len(x))
				}
				pushed := true
				for off := 0; off < upTo; {
					c := min(1+rng.Intn(2400), upTo-off)
					if _, err := s.Push(ctx, x[off:off+c]); err != nil {
						if evicted(s, err) {
							pushed = false
							break
						}
						t.Errorf("session %d: %v", s.ID(), err)
						return
					}
					off += c
				}
				if !pushed {
					ended()
					continue
				}
				switch {
				case kind < 6: // finished
					fin, err := s.Finish(ctx)
					if evicted(s, err) {
						ended()
						continue
					}
					if err != nil {
						t.Errorf("session %d: %v", s.ID(), err)
						return
					}
					if !slices.Equal(fin.Samples, x) {
						t.Errorf("session %d: Final.Samples before Close is not the audio pushed", s.ID())
					}
					if n%8 == 0 {
						want, err := d.Detect(ctx, &audio.Clip{SampleRate: set.SampleRate, Samples: x})
						if err != nil {
							t.Error(err)
							return
						}
						if fin.Decision.Adversarial != want.Adversarial || !slices.Equal(fin.Decision.Scores, want.Scores) ||
							fin.Decision.Transcriptions.Target != want.Transcriptions.Target || !slices.Equal(fin.Decision.Transcriptions.Aux, want.Transcriptions.Aux) {
							t.Errorf("session %d on a recycled stream: %+v, batch %+v", s.ID(), fin.Decision, want)
						}
					}
					s.Close()
				case kind < 8: // abandoned
					s.Close()
				case kind == 8: // evicted: idle until the janitor takes it
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
						s.mu.Lock()
						closed := s.closed
						s.mu.Unlock()
						if closed {
							break
						}
						if time.Now().After(deadline) {
							t.Errorf("session %d never evicted", s.ID())
							return
						}
					}
					ended()
				default: // left for Manager.Close (or the janitor, if it is quicker)
					mu.Lock()
					leftOpen = append(leftOpen, s)
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	m.Close()
	for _, s := range leftOpen {
		if _, err := s.Push(ctx, clips[0][:10]); !errors.Is(err, ErrSessionClosed) {
			t.Errorf("session %d after Manager.Close: %v, want ErrSessionClosed", s.ID(), err)
		}
	}
	if n := evictions.Load(); n < int64(seenEvicted) {
		t.Fatalf("the test took %d sessions as evicted, the manager announced %d evictions", seenEvicted, n)
	}
	if recycled < 100 {
		t.Fatalf("%d of 200 sessions ran on a recycled stream: the free list is not in use", recycled)
	}
	if len(m.free) != 0 || m.OpenSessions() != 0 {
		t.Fatalf("closed manager holds %d streams and %d sessions", len(m.free), m.OpenSessions())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the manager existed", runtime.NumGoroutine(), baseline)
		}
	}
}
