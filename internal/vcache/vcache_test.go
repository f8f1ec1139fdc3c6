package vcache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvpears/internal/audio"
)

// --- keys ---

// randomClip builds a deterministic pseudo-speech clip.
func randomClip(seed int64, rate, n int) *audio.Clip {
	rng := rand.New(rand.NewSource(seed))
	c := audio.NewClip(rate, n)
	for i := range c.Samples {
		c.Samples[i] = rng.Float64()*2 - 1
	}
	return c
}

func TestKeySamplesMatchesKeyPCM16(t *testing.T) {
	clip := randomClip(1, 8000, 1000)
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, clip); err != nil {
		t.Fatal(err)
	}
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(buf.Bytes()), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The float path hashes the decoded samples; the raw path hashes the
	// PCM payload directly. Both must derive the same key.
	raw := KeyPCM16("m", pcm.SampleRate, pcm.Data)
	dec := KeySamples("m", pcm.SampleRate, pcm.Decode().Samples)
	if raw != dec {
		t.Fatalf("raw key %s != decoded key %s", raw, dec)
	}
}

// TestKeySurvivesReencoding is the chunk-layout acceptance check: the same
// audio wrapped in WAV containers with different chunk layouts (extra
// LIST/INFO chunks, reordered metadata) must produce the same cache key.
func TestKeySurvivesReencoding(t *testing.T) {
	clip := randomClip(2, 8000, 512)
	var plain bytes.Buffer
	if err := audio.WriteWAV(&plain, clip); err != nil {
		t.Fatal(err)
	}
	raw := plain.Bytes()

	// Re-wrap: RIFF header, a LIST chunk before fmt, fmt, a JUNK chunk
	// (odd-sized, exercising the pad byte), then the same data chunk.
	var alt bytes.Buffer
	chunk := func(id string, body []byte) {
		alt.WriteString(id)
		var sz [4]byte
		binary.LittleEndian.PutUint32(sz[:], uint32(len(body)))
		alt.Write(sz[:])
		alt.Write(body)
		if len(body)%2 == 1 {
			alt.WriteByte(0)
		}
	}
	alt.WriteString("RIFF\x00\x00\x00\x00WAVE")
	chunk("LIST", []byte("INFOsome metadata"))
	chunk("fmt ", raw[20:36])
	chunk("JUNK", []byte("odd"))
	chunk("data", raw[44:])

	k1, err := keyOfWAV(raw)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := keyOfWAV(alt.Bytes())
	if err != nil {
		t.Fatalf("re-wrapped container did not decode: %v", err)
	}
	if k1 != k2 {
		t.Fatalf("chunk layout changed the key: %s vs %s", k1, k2)
	}

	// Different audio content must change the key.
	other := randomClip(3, 8000, 512)
	var otherBuf bytes.Buffer
	if err := audio.WriteWAV(&otherBuf, other); err != nil {
		t.Fatal(err)
	}
	k3, err := keyOfWAV(otherBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different audio content produced the same key")
	}
}

func keyOfWAV(wav []byte) (string, error) {
	pcm, err := audio.ReadWAVPCM(bytes.NewReader(wav), 0, nil)
	if err != nil {
		return "", err
	}
	return KeyPCM16("m", pcm.SampleRate, pcm.Data), nil
}

// TestKeyModelAndRateSensitivity is the different-model acceptance check:
// identical audio under a different model fingerprint (or sample rate)
// must map to a different key, so a cache can never serve verdicts from
// another model.
func TestKeyModelAndRateSensitivity(t *testing.T) {
	clip := randomClip(4, 8000, 256)
	base := KeySamples("model-a", 8000, clip.Samples)
	if KeySamples("model-b", 8000, clip.Samples) == base {
		t.Fatal("different model fingerprint produced the same key")
	}
	if KeySamples("model-a", 16000, clip.Samples) == base {
		t.Fatal("different sample rate produced the same key")
	}
	if KeySamples("model-a", 8000, clip.Samples) != base {
		t.Fatal("key derivation is not deterministic")
	}
}

func TestKeyCanonicalizesInt16Min(t *testing.T) {
	// -32768 is the one int16 the float round trip cannot preserve: it
	// decodes to < -1 and re-quantizes to -32767. The raw-PCM hash must
	// treat the two as the same sample.
	min := []byte{0x00, 0x80}
	canon := []byte{0x01, 0x80}
	if KeyPCM16("m", 8000, min) != KeyPCM16("m", 8000, canon) {
		t.Fatal("-32768 and -32767 must hash identically")
	}
	// And the float path agrees with the raw path for that sample.
	pcm := audio.PCM16{SampleRate: 8000, Data: min}
	if KeySamples("m", 8000, pcm.Decode().Samples) != KeyPCM16("m", 8000, min) {
		t.Fatal("float path diverged from raw path on int16 min")
	}
}

// keyPCM16Copying is the reference derivation KeyPCM16 replaced: copy the
// payload through a staging buffer, rewrite each aligned -32768 sample to
// -32767 byte by byte, hash the copy.
func keyPCM16Copying(modelFP string, sampleRate int, data []byte) string {
	h := sha256.New()
	hashRateHeader(h, sampleRate)
	var chunk [hashChunkBytes]byte
	rest := data[:len(data)&^1]
	for len(rest) > 0 {
		n := copy(chunk[:], rest) &^ 1
		for i := 0; i+1 < n; i += 2 {
			if chunk[i] == 0x00 && chunk[i+1] == 0x80 {
				chunk[i] = 0x01
			}
		}
		h.Write(chunk[:n])
		rest = rest[n:]
	}
	return finishKey(modelFP, h.Sum(chunk[:0]))
}

// FuzzKeyPCM16 holds the in-place hash to the copying reference and to the
// float path, so cache keys stay bit-identical to every earlier derivation.
func FuzzKeyPCM16(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x00, 0x80}, 4096+3)) // all -32768, across a staging chunk
	// 00 80 pairs at odd offsets: a low byte 0x80 after a high byte 0x00
	// is not -32768 and must hash as is.
	f.Add([]byte{0x12, 0x00, 0x80, 0x34, 0x00, 0x80, 0x00})
	f.Add([]byte{0x00, 0x80, 0x05, 0x06, 0x00, 0x80}) // first and last sample
	f.Add([]byte{0x00, 0x80, 0x7f})                   // odd length
	f.Add([]byte{0x80, 0x80, 0x80, 0x00, 0x80, 0x80, 0x00})
	f.Add(func() []byte {
		b := make([]byte, 3*hashChunkBytes+1)
		for i := range b {
			b[i] = byte(i * 7)
		}
		b[hashChunkBytes-2], b[hashChunkBytes-1] = 0x00, 0x80   // aligned, ends a chunk
		b[2*hashChunkBytes-1], b[2*hashChunkBytes] = 0x00, 0x80 // misaligned, straddles one
		return b
	}())
	f.Fuzz(func(t *testing.T, pcm []byte) {
		got := KeyPCM16("m", 8000, pcm)
		if want := keyPCM16Copying("m", 8000, pcm); got != want {
			t.Fatalf("in-place key %s != copying reference %s", got, want)
		}
		dec := (audio.PCM16{SampleRate: 8000, Data: pcm}).DecodeInto(nil)
		if want := KeySamples("m", 8000, dec.Samples); got != want {
			t.Fatalf("raw key %s != float-path key %s", got, want)
		}
	})
}

var keySink string

// BenchmarkKeyPCM16 fingerprints one 12 800-sample clip (25.6 KB, the
// benchmark corpus's clip size) with -32768 samples sprinkled in.
func BenchmarkKeyPCM16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pcm := make([]byte, 2*12800)
	rng.Read(pcm)
	for i := 0; i < len(pcm); i += 2 * 997 {
		pcm[i], pcm[i+1] = 0x00, 0x80
	}
	b.SetBytes(int64(len(pcm)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = KeyPCM16("model", 8000, pcm)
	}
}

// --- cache ---

func TestCacheLRUAndStats(t *testing.T) {
	c := New[string](2, 1<<20)
	c.Put("a", "A", 10)
	c.Put("b", "B", 10)
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("a: %q %v", v, ok)
	}
	c.Put("c", "C", 10) // evicts b (a was refreshed by the Get)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived past the entry bound")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a was evicted despite being most recently used")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Entries != 2 || st.Bytes != 20 {
		t.Fatalf("resident %+v", st)
	}
}

// TestCacheEvictsUnderBytePressure is the byte-bound acceptance check.
func TestCacheEvictsUnderBytePressure(t *testing.T) {
	c := New[int](100, 100)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	c.Put("c", 3, 40) // 120 bytes > 100: a (oldest) must go
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived past the byte bound")
	}
	for _, k := range []string{"b", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted unnecessarily", k)
		}
	}
	if st := c.Stats(); st.Bytes != 80 || st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	// An entry larger than the whole budget is refused, not admitted.
	c.Put("huge", 4, 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("over-budget entry was admitted")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("over-budget insert disturbed residents: %+v", st)
	}
}

func TestCacheUpdateResizesAccounting(t *testing.T) {
	c := New[int](10, 100)
	c.Put("a", 1, 30)
	c.Put("a", 2, 70)
	if st := c.Stats(); st.Bytes != 70 || st.Entries != 1 {
		t.Fatalf("stats after update %+v", st)
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("update lost: %d", v)
	}
	c.Purge()
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("stats after purge %+v", st)
	}
}

// TestCacheHoldsItsEntryBound fills a cache with exactly as many distinct
// keys as its entry bound: nothing may be evicted, whatever the keys hash
// to.
func TestCacheHoldsItsEntryBound(t *testing.T) {
	const n = 4096
	c := New[int](n, 1<<30)
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("model:%064x", i), i, 64)
	}
	if st := c.Stats(); st.Entries != n || st.Evictions != 0 {
		t.Fatalf("%d distinct keys into a %d-entry cache: %+v, want every entry kept", n, n, st)
	}
	for i := 0; i < n; i++ {
		if v, ok := c.Peek(fmt.Sprintf("model:%064x", i)); !ok || v != i {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
}

// TestCacheAdmitsEntryUpToByteBudget: the byte bound is the whole cache's,
// so an entry up to the full budget is cached, and only a larger one is
// refused.
func TestCacheAdmitsEntryUpToByteBudget(t *testing.T) {
	c := New[int](100, 1000)
	c.Put("half", 1, 500)
	if _, ok := c.Get("half"); !ok {
		t.Fatal("a half-budget entry was refused")
	}
	c.Put("whole", 2, 1000) // fits only by evicting "half"
	if _, ok := c.Get("whole"); !ok {
		t.Fatal("a whole-budget entry was refused")
	}
	if st := c.Stats(); st.Entries != 1 || st.Bytes != 1000 || st.Evictions != 1 {
		t.Fatalf("stats %+v", st)
	}
	c.Put("over", 3, 1001)
	if _, ok := c.Peek("over"); ok {
		t.Fatal("an over-budget entry was admitted")
	}
}

// TestCacheConcurrentMixedLoad hammers the cache from many goroutines;
// run under -race it is the locking soundness check.
func TestCacheConcurrentMixedLoad(t *testing.T) {
	c := New[int](64, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%100)
				if i%3 == 0 {
					c.Put(k, i, int64(16+i%32))
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries > 64 || st.Bytes > 1<<16 {
		t.Fatalf("bounds violated: %+v", st)
	}
}

// --- singleflight ---

func TestFlightCollapsesDuplicates(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	const K = 8
	var wg sync.WaitGroup
	sharedCount := atomic.Int32{}
	results := make([]int, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				results[i], _, errs[i] = g.Do(context.Background(), "k", fn)
				return
			}
			<-started // guarantee we join, not lead
			v, shared, err := g.Do(context.Background(), "k", fn)
			results[i], errs[i] = v, err
			if shared {
				sharedCount.Add(1)
			}
		}(i)
	}
	// Wait for everyone to be parked on the flight, then release.
	waitFor(t, func() bool { return g.Collapsed() == K-1 })
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d: %d %v", i, results[i], errs[i])
		}
	}
	if sharedCount.Load() != K-1 {
		t.Fatalf("%d callers reported shared, want %d", sharedCount.Load(), K-1)
	}
}

// TestFlightLeaderFailurePropagates is the leader-failure acceptance
// check: the flight's error reaches every waiter exactly once, and the
// next call retries fresh.
func TestFlightLeaderFailurePropagates(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	var calls atomic.Int32
	release := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) (int, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-release
			return 0, boom
		}
		return 7, nil
	}
	const waiters = 4
	var wg sync.WaitGroup
	var failures atomic.Int32
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := g.Do(context.Background(), "k", fn); errors.Is(err, boom) {
			failures.Add(1)
		}
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := g.Do(context.Background(), "k", fn); errors.Is(err, boom) {
				failures.Add(1)
			}
		}()
	}
	waitFor(t, func() bool { return g.Collapsed() == waiters })
	close(release)
	wg.Wait()
	if failures.Load() != waiters+1 {
		t.Fatalf("%d callers saw the failure, want %d", failures.Load(), waiters+1)
	}
	// Errors are not sticky: the next call runs fn again and succeeds.
	if v, _, err := g.Do(context.Background(), "k", fn); err != nil || v != 7 {
		t.Fatalf("retry after failure: %d %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fn ran %d times, want 2", calls.Load())
	}
}

// TestFlightWaiterCancellationDoesNotCancelLeader is the
// waiter-cancellation acceptance check: one waiter hanging up detaches
// only itself; the flight's work context stays live and the remaining
// callers get the real result.
func TestFlightWaiterCancellationDoesNotCancelLeader(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	flightCancelled := atomic.Bool{}
	fn := func(ctx context.Context) (int, error) {
		close(started)
		<-release
		if ctx.Err() != nil {
			flightCancelled.Store(true)
			return 0, ctx.Err()
		}
		return 42, nil
	}

	leaderRes := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", fn)
		leaderRes <- err
	}()
	<-started

	// A waiter with a short deadline joins, then gives up.
	wctx, wcancel := context.WithCancel(context.Background())
	waiterRes := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(wctx, "k", fn)
		if !shared {
			t.Error("waiter did not join the leader's flight")
		}
		waiterRes <- err
	}()
	waitFor(t, func() bool { return g.Collapsed() == 1 })
	wcancel()
	if err := <-waiterRes; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	// The flight must still be running for the leader.
	close(release)
	if err := <-leaderRes; err != nil {
		t.Fatalf("leader failed after waiter cancellation: %v", err)
	}
	if flightCancelled.Load() {
		t.Fatal("waiter cancellation cancelled the flight's work context")
	}
}

// TestFlightAbandonedByAllIsCancelled asserts the refcount endgame: when
// every caller hangs up, the flight's context is cancelled so abandoned
// work stops, and a later call starts a fresh flight.
func TestFlightAbandonedByAllIsCancelled(t *testing.T) {
	var g Group[int]
	var calls atomic.Int32
	cancelled := make(chan struct{})
	started := make(chan struct{}, 2)
	fn := func(ctx context.Context) (int, error) {
		n := calls.Add(1)
		started <- struct{}{}
		if n == 1 {
			<-ctx.Done() // abandoned work observes its cancellation
			close(cancelled)
			return 0, ctx.Err()
		}
		return 5, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx, "k", fn)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning caller got %v", err)
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context was not cancelled after all callers left")
	}
	// A fresh call leads a fresh flight.
	if v, shared, err := g.Do(context.Background(), "k", fn); err != nil || shared || v != 5 {
		t.Fatalf("post-abandon call: v=%d shared=%v err=%v", v, shared, err)
	}
}

func TestFlightPanicBecomesError(t *testing.T) {
	var g Group[int]
	_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
		panic("kaboom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Fatalf("err %v, want PanicError(kaboom)", err)
	}
	// The group is usable afterwards.
	if v, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) { return 1, nil }); err != nil || v != 1 {
		t.Fatalf("post-panic call: %d %v", v, err)
	}
}

func TestFlightTimeoutBoundsWork(t *testing.T) {
	g := Group[int]{Timeout: 20 * time.Millisecond}
	_, _, err := g.Do(context.Background(), "k", func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want deadline exceeded", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
