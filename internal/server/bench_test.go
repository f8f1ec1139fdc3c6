package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/speech"
	"mvpears/internal/vcache"
)

// Serving-path benchmarks over a real quick-scale system (SERVE_BENCH,
// compared by `make bench` into BENCH_ab.json): a cache hit answers from
// the verdict cache without float decode, worker-pool admission or
// detection; a miss pays the full pipeline; a duplicate storm collapses
// onto one detection via singleflight.

// benchSystem shares the e2e quick-scale system with the benchmarks.
func benchSystem(b *testing.B) *mvpears.System {
	b.Helper()
	e2eOnce.Do(func() {
		e2eSys, e2eErr = mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(1))
	})
	if e2eErr != nil {
		b.Fatalf("building system: %v", e2eErr)
	}
	return e2eSys
}

func benchServer(b *testing.B) (*Server, http.Handler) {
	b.Helper()
	s, err := New(Config{
		Backend: benchSystem(b),
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	return s, s.Handler()
}

// benchWAV renders a deterministic clip whose content (and therefore
// cache key) is decided by seed.
func benchWAV(b *testing.B, rate, n, seed int) []byte {
	b.Helper()
	c := audio.NewClip(rate, n)
	x := uint32(seed)*2654435761 + 1
	for i := range c.Samples {
		x = x*1664525 + 1013904223
		c.Samples[i] = float64(x>>16)/65536*0.9 - 0.45
	}
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, c); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

func serveDetect(h http.Handler, body []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// BenchmarkServeHit measures the cache-hit serving path: decode the WAV
// structurally, fingerprint it, answer from the cache. The clip is 12 800
// samples (25.6 KB of PCM), the size of the benchmark corpus's clips, so
// the fingerprint's share of a hit is the one real traffic pays.
func BenchmarkServeHit(b *testing.B) {
	_, h := benchServer(b)
	body := benchWAV(b, 8000, 12800, 0)
	if code := serveDetect(h, body); code != http.StatusOK {
		b.Fatalf("priming status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serveDetect(h, body); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServeMiss measures the full pipeline: every request carries
// content the cache has never seen.
func BenchmarkServeMiss(b *testing.B) {
	_, h := benchServer(b)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = benchWAV(b, 8000, 2000, i+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serveDetect(h, bodies[i]); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// scDetects reports whether the system short-circuits on the clip encoded
// in body.
func scDetects(b *testing.B, sys *mvpears.System, body []byte) bool {
	b.Helper()
	clip, err := audio.ReadWAV(bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	det, err := sys.DetectCtx(context.Background(), clip)
	if err != nil {
		b.Fatal(err)
	}
	return det.Cascade != nil && det.Cascade.ShortCircuit
}

// BenchmarkServeMissCascade measures the cascaded miss path through the
// HTTP handler: auto-calibrated margins, the leader the expected-cost
// rule elects, no monitoring samples (so the benign path is isolated),
// over never-seen benign speech — the traffic the short-circuit is built
// for. The bases are the first four seeded utterances (1.3–1.9 s) the
// cascade short-circuits; noise, which BenchmarkServeMiss serves, is no
// use here because no two engine families hear the same words in it.
// One body per iteration is derived by flipping one PCM sample's low bit
// at a varying position: acoustically the same clip, but a distinct
// content fingerprint, so every timed request is a genuine cache miss
// down the short-circuit path. Each variant's short-circuit is
// re-verified during setup; clips the cascade escalates are excluded,
// since the full-ensemble path is BenchmarkServeMiss's job. The leader
// is a function of the model alone, so every round times the same
// bodies.
func BenchmarkServeMissCascade(b *testing.B) {
	sys := benchSystem(b)
	if err := sys.EnableCascade(0, 0); err != nil {
		b.Fatalf("EnableCascade: %v", err)
	}
	b.Cleanup(sys.DisableCascade)

	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(sys.SampleRate()), 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	var bases [][]byte
	for _, u := range utts {
		if len(bases) == 4 {
			break
		}
		var buf bytes.Buffer
		if err := audio.WriteWAV(&buf, u.Clip); err != nil {
			b.Fatal(err)
		}
		if scDetects(b, sys, buf.Bytes()) {
			bases = append(bases, buf.Bytes())
		}
	}
	if len(bases) == 0 {
		b.Fatal("no short-circuiting utterance among the seeded bases")
	}

	const wavHeader = 44 // canonical PCM16 header WriteWAV emits
	bodies := make([][]byte, 0, b.N)
	for v := 0; len(bodies) < b.N; v++ {
		body := append([]byte(nil), bases[v%len(bases)]...)
		// One low bit at a varying byte offset: enough to change the
		// fingerprint, ~-90dB relative to the signal.
		body[wavHeader+2*((v/len(bases))%2000)] ^= 1
		if !scDetects(b, sys, body) {
			continue
		}
		bodies = append(bodies, body)
	}

	_, h := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serveDetect(h, bodies[i]); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkCascadeDetect measures one in-process detection under the
// cascade (auto-calibrated margins, no monitoring samples) over 64
// seeded benign utterances, and reports the share that short-circuited:
// the two numbers the leader election trades against each other.
func BenchmarkCascadeDetect(b *testing.B) {
	sys := benchSystem(b)
	if err := sys.EnableCascade(0, 0); err != nil {
		b.Fatalf("EnableCascade: %v", err)
	}
	b.Cleanup(sys.DisableCascade)
	utts, err := speech.GenerateUtterances(speech.NewSynthesizer(sys.SampleRate()), 64, 1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	short := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det, err := sys.DetectCtx(ctx, utts[i%len(utts)].Clip)
		if err != nil {
			b.Fatal(err)
		}
		if det.Cascade.ShortCircuit {
			short++
		}
	}
	b.ReportMetric(float64(short)/float64(b.N), "short-circuit-share")
}

// BenchmarkStreamWindow measures one sliding-window evaluation on a live
// streaming session at the default geometry (1 s window, 250 ms hop):
// per hop, every engine decodes the window from its frame-incremental
// state, the texts are phonetically scored, and the vector is
// classified. The real-time constraint is the hop interval — a window
// must evaluate faster than the audio it covers arrives, on one core —
// so the benchmark fails outright if the median window exceeds it.
func BenchmarkStreamWindow(b *testing.B) {
	sys := benchSystem(b)
	m, err := sys.NewStreamManager(mvpears.StreamOptions{
		MaxDuration:      time.Hour, // the session accumulates b.N hops
		DisableEarlyExit: true,      // keep every iteration evaluating
	})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	sess, err := m.Open()
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()

	rate := sys.SampleRate()
	window, hop := rate, rate/4
	ctx := context.Background()
	x := uint32(99)
	fill := func(dst []float64) {
		for i := range dst {
			x = x*1664525 + 1013904223
			dst[i] = float64(x>>16)/65536*0.9 - 0.45
		}
	}
	// Prime to one hop short of the first window, so every timed Push
	// lands exactly one window evaluation.
	prime := make([]float64, window-hop)
	fill(prime)
	if ws, err := sess.Push(ctx, prime); err != nil || len(ws) != 0 {
		b.Fatalf("prime push: %d windows, err %v", len(ws), err)
	}
	chunk := make([]float64, hop)
	durs := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fill(chunk)
		start := time.Now()
		ws, err := sess.Push(ctx, chunk)
		if err != nil {
			b.Fatal(err)
		}
		durs = append(durs, time.Since(start))
		if len(ws) != 1 {
			b.Fatalf("push emitted %d windows, want 1", len(ws))
		}
	}
	b.StopTimer()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	median := durs[len(durs)/2]
	b.ReportMetric(float64(median.Nanoseconds()), "median-ns/window")
	hopInterval := time.Duration(hop) * time.Second / time.Duration(rate)
	if median >= hopInterval {
		b.Fatalf("median window evaluation %v is not real-time (hop interval %v)", median, hopInterval)
	}
}

// benchClusterBodies generates count WAV bodies (seeded from seedBase)
// whose verdict keys, under fp, land on (wantSelf) or off (!wantSelf)
// replica s in the ring.
func benchClusterBodies(b *testing.B, s *Server, fp string, wantSelf bool, count, seedBase int) [][]byte {
	b.Helper()
	bodies := make([][]byte, 0, count)
	for seed := seedBase; len(bodies) < count; seed++ {
		body := benchWAV(b, 8000, 2000, seed)
		pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
		if err != nil {
			b.Fatal(err)
		}
		key := vcache.KeyPCM16(fp, pcm.SampleRate, pcm.Data)
		if _, self := s.node.Owner(key); self == wantSelf {
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// scrapeCounter reads one counter (with its full label key) off the
// handler's /metrics exposition.
func scrapeCounter(b *testing.B, h http.Handler, name string) int {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(rest)
			if err != nil {
				b.Fatalf("counter %s = %q", name, rest)
			}
			return v
		}
	}
	return 0
}

// BenchmarkClusterRemoteHit measures the distributed cache-hit path over
// two clustered replicas sharing one quick-scale system: every timed
// request misses the serving replica's local cache and is answered by
// the owning peer's cache over the real loopback peer protocol — the
// owner's record framed as it is, TCP round trip, one copy and parse of
// the reply, the reply's record stored as the requester's entry. Its
// acceptance bound is remote hit <= 1/3 of the full cascade-miss
// pipeline.
func BenchmarkClusterRemoteHit(b *testing.B) {
	sys := benchSystem(b)
	// Every body is a distinct key (a repeat would be a LOCAL hit on the
	// requester), so both verdict caches must hold b.N entries at once.
	// The cache is one LRU with an exact entry bound, so b.N entries need
	// b.N slots; an eviction would turn a timed request into a real
	// detection, which the remote-hit count below would catch.
	sA, sB, _, _ := clusterPair(b, sys, sys, func(cfg *Config) {
		cfg.CacheEntries = b.N
		cfg.CacheBytes = 256 << 20
	})
	hB := sB.Handler()
	fp := sA.ModelFingerprint()
	// Bodies owned by A (from B's view), primed straight into A's cache:
	// the remote-HIT path under measurement never runs a detection, so
	// setup doesn't either.
	det := benignDetection()
	bodies := benchClusterBodies(b, sB, fp, false, b.N, 3_000_000)
	for _, body := range bodies {
		pcm, err := audio.ReadWAVPCM(bytes.NewReader(body), 1<<20, nil)
		if err != nil {
			b.Fatal(err)
		}
		key := vcache.KeyPCM16(fp, pcm.SampleRate, pcm.Data)
		sA.store(key, newVerdictEntry(det))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serveDetect(hB, bodies[i]); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
	b.StopTimer()
	if hits := scrapeCounter(b, hB, `mvpears_cluster_forwards_total{outcome="hit"}`); hits != b.N {
		b.Fatalf("%d of %d requests were remote hits", hits, b.N)
	}
}

// BenchmarkServeDuplicateStorm measures 16 concurrent identical uploads
// of never-seen content per iteration: singleflight collapses them onto
// one detection.
func BenchmarkServeDuplicateStorm(b *testing.B) {
	const storm = 16
	_, h := benchServer(b)
	bodies := make([][]byte, b.N)
	for i := range bodies {
		bodies[i] = benchWAV(b, 8000, 2000, 1_000_000+i)
	}
	var bad atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for g := 0; g < storm; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if code := serveDetect(h, bodies[i]); code != http.StatusOK {
					bad.Add(1)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if n := bad.Load(); n != 0 {
		b.Fatalf("%d storm requests failed", n)
	}
}

// cacheEntryDetection is the i-th verdict of a quick-scale roster (target
// DS0, auxiliaries DS1, GCS, AT), allocated as the detector allocates
// one: a fresh map, fresh transcription strings, fresh slices. cascaded
// makes it a short-circuited cascade verdict, whose skipped engines'
// transcriptions are empty.
func cacheEntryDetection(i int, cascaded bool) *mvpears.Detection {
	phrases := []string{"open the front door", "turn off the kitchen lights", "call my mother", "play some music please"}
	text := func(j int) string { return strings.Clone(phrases[(i+j)%len(phrases)]) }
	det := &mvpears.Detection{
		Scores:         []float64{0.97 - float64(i%7)/100, 0.95, 0.91 + float64(i%5)/100},
		Transcriptions: map[string]string{"DS0": text(0), "DS1": text(0), "GCS": text(1), "AT": text(0)},
		Timing: mvpears.DetectionTiming{
			Recognition: time.Duration(3_000_000 + i),
			Similarity:  20 * time.Microsecond,
			Classify:    2 * time.Microsecond,
		},
	}
	if cascaded {
		det.Transcriptions["DS1"], det.Transcriptions["GCS"] = "", ""
		det.Cascade = &mvpears.CascadeDecision{
			ShortCircuit:   true,
			EnginesRun:     []string{"AT"},
			EnginesSkipped: []string{"DS1", "GCS"},
			Margin:         0.7343,
			FirstScore:     det.Scores[2],
			Imputed:        []bool{true, true, false},
		}
	}
	return det
}

// measureCacheEntries stores n cacheEntryDetection verdicts, under real
// 129-byte keys, in a fresh server's verdict cache through the serving
// path's one cache write, then — with hits — serves every entry once as
// a plain hit does. It returns the live heap bytes and heap objects the
// entries hold (the heap after GCs with them resident, less the heap
// after purging them and another GC; the stored detections themselves
// are garbage by then) and the bytes the cache charged, each per entry.
func measureCacheEntries(tb testing.TB, cascaded, hits bool, n int) (heapPer, objectsPer, chargedPer float64) {
	tb.Helper()
	// A model fingerprint is 64 hex digits, so a key is 64 + 1 + 64 bytes.
	fp := strings.Repeat("5e", 32)
	s, err := New(Config{Backend: &fpStub{instantStub(), fp}, CacheEntries: n, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		tb.Fatal(err)
	}
	st := s.state()
	var pcm [8]byte
	for i := range n {
		binary.LittleEndian.PutUint64(pcm[:], uint64(i))
		key := vcache.KeyPCM16(st.modelFP, 8000, pcm[:])
		s.store(key, newVerdictEntry(cacheEntryDetection(i, cascaded)))
		if e, ok := s.lookup(key, false); ok && hits {
			s.record(st, nil, "detect", "", e.detection(), howCached, false)
		}
	}
	var full, empty runtime.MemStats
	// Two collections before the first reading: the first moves what the
	// sync.Pools hold (earlier tests' 64 KiB upload buffers among them) to
	// their victim caches and the second frees it, so pooled buffers are in
	// neither reading, however many collections ran while the cache filled.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&full)
	stats := s.vc.Stats()
	s.vc.Purge()
	runtime.GC()
	runtime.ReadMemStats(&empty)
	runtime.KeepAlive(s)
	if stats.Entries != int64(n) {
		tb.Fatalf("%d entries resident, want %d", stats.Entries, n)
	}
	heapPer = float64(int64(full.HeapAlloc)-int64(empty.HeapAlloc)) / float64(n)
	objectsPer = float64(int64(full.HeapObjects)-int64(empty.HeapObjects)) / float64(n)
	return heapPer, objectsPer, float64(stats.Bytes) / float64(n)
}

// BenchmarkCacheEntry measures what one cached verdict costs the heap:
// live bytes and objects per entry (key, cache bookkeeping and value) for
// 4 096 stored full-ensemble and short-circuited cascade verdicts. ns/op
// is the cost of filling the cache, two forced GCs included.
func BenchmarkCacheEntry(b *testing.B) {
	for _, kind := range []struct {
		name     string
		cascaded bool
	}{{"full", false}, {"cascaded", true}} {
		b.Run(kind.name, func(b *testing.B) {
			var heap, objects float64
			for range b.N {
				heap, objects, _ = measureCacheEntries(b, kind.cascaded, false, 4096)
			}
			b.ReportMetric(heap, "B/entry")
			b.ReportMetric(objects, "objects/entry")
		})
	}
}
