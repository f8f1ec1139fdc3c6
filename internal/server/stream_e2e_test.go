package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/stream"
)

// streamE2EServer boots a streaming-enabled server over real TCP and
// returns its base URL. Window/hop are shrunk below the defaults so the
// short quick-scale fixtures span several windows.
func streamE2EServer(t *testing.T, sys *mvpears.System) string {
	t.Helper()
	_, base := startE2EServer(t, Config{
		Backend: sys,
		Workers: 2,
		Stream: &StreamConfig{
			Window: 4000, // 500 ms at the 8 kHz quick scale
			Hop:    1000, // 125 ms
		},
	})
	return base
}

// startE2EServer boots a server from cfg over real TCP and returns it
// with its base URL; test cleanup shuts it down.
func startE2EServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-serveDone
	})
	return s, "http://" + ln.Addr().String()
}

// streamNDJSON POSTs wav to /v1/detect/stream in chunkSize-byte pieces
// over a chunked-transfer body and decodes every NDJSON event.
func streamNDJSON(t *testing.T, base string, wav []byte, chunkSize int) []StreamEventJSON {
	t.Helper()
	pr, pw := io.Pipe()
	go func() {
		for off := 0; off < len(wav); off += chunkSize {
			end := min(off+chunkSize, len(wav))
			if _, err := pw.Write(wav[off:end]); err != nil {
				return
			}
		}
		pw.Close()
	}()
	resp, err := http.Post(base+"/v1/detect/stream", "audio/wav", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	var events []StreamEventJSON
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var ev StreamEventJSON
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// splitStreamEvents separates window events from the trailing final.
func splitStreamEvents(t *testing.T, events []StreamEventJSON) (windows []StreamEventJSON, final StreamEventJSON) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("no stream events")
	}
	for _, ev := range events {
		if ev.Event == StreamEventError {
			t.Fatalf("stream error event: %s", ev.Error)
		}
	}
	final = events[len(events)-1]
	if final.Event != StreamEventFinal || final.Detection == nil {
		t.Fatalf("last event is %q (detection %v), want final", final.Event, final.Detection != nil)
	}
	for _, ev := range events[:len(events)-1] {
		if ev.Event != StreamEventWindow || ev.Window == nil {
			t.Fatalf("mid-stream event %q, want window", ev.Event)
		}
		windows = append(windows, ev)
	}
	return windows, final
}

// assertDetectionEqual requires the streamed final verdict to be
// bit-identical to the batch reference: same verdict, exact float64
// scores, same transcriptions.
func assertDetectionEqual(t *testing.T, name string, got *DetectionJSON, want *mvpears.Detection) {
	t.Helper()
	wantVerdict := VerdictBenign
	if want.Adversarial {
		wantVerdict = VerdictAdversarial
	}
	if got.Verdict != wantVerdict || got.Adversarial != want.Adversarial {
		t.Fatalf("%s: streamed verdict %s, batch %s", name, got.Verdict, wantVerdict)
	}
	if len(got.Scores) != len(want.Scores) {
		t.Fatalf("%s: score width %d vs %d", name, len(got.Scores), len(want.Scores))
	}
	for i := range got.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("%s: score %d not bit-identical: %g vs %g", name, i, got.Scores[i], want.Scores[i])
		}
	}
	for engine, text := range want.Transcriptions {
		if got.Transcriptions[engine] != text {
			t.Fatalf("%s: %s transcribed %q, batch %q", name, engine, got.Transcriptions[engine], text)
		}
	}
}

// TestE2EStreamingDetection is the streaming acceptance scenario: boot a
// streaming daemon on real TCP, feed a benign clip and a crafted AE in
// small chunks, and require (a) provisional window verdicts along the
// way, (b) a final streamed verdict bit-identical to the batch System
// verdict on the whole clip, (c) the AE session flagged adversarial
// before end-of-stream with the time-to-flag logged, and (d) the
// streamed final populating the same content-addressed verdict cache the
// batch endpoint reads.
func TestE2EStreamingDetection(t *testing.T) {
	sys := e2eSystem(t)
	base := streamE2EServer(t, sys)

	benign, err := sys.GenerateSpeech("the door is open now please", 123)
	if err != nil {
		t.Fatal(err)
	}
	benignWAV := encodeWAV(t, benign)
	decoded, err := audio.ReadWAV(bytes.NewReader(benignWAV))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectCtx(context.Background(), decoded)
	if err != nil {
		t.Fatal(err)
	}
	if want.Adversarial {
		t.Fatal("reference system called the benign fixture adversarial")
	}

	events := streamNDJSON(t, base, benignWAV, 1024)
	windows, final := splitStreamEvents(t, events)
	if len(windows) == 0 {
		t.Fatal("benign stream produced no provisional windows")
	}
	// Provisional window verdicts may transiently read adversarial at
	// phrase boundaries; what a benign session must never do is trip the
	// early-exit flag.
	for _, ev := range windows {
		if ev.Stop || ev.Window.EarlyExit {
			t.Fatalf("benign window tripped early exit: %+v", ev.Window)
		}
	}
	assertDetectionEqual(t, "benign", final.Detection, want)
	if final.Detection.Cached {
		t.Fatal("first streamed verdict claims to be cached")
	}
	if final.EarlyExit != nil {
		t.Fatalf("benign stream early-exited: %+v", final.EarlyExit)
	}

	// The streamed verdict is content-addressed identically to a batch
	// upload: the same WAV POSTed whole is now a cache hit.
	resp, err := http.Post(base+"/v1/detect", "audio/wav", bytes.NewReader(benignWAV))
	if err != nil {
		t.Fatal(err)
	}
	batch := decodeBody[DetectionJSON](t, resp)
	resp.Body.Close()
	if !batch.Cached {
		t.Fatal("batch re-upload of streamed content missed the verdict cache")
	}
	assertDetectionEqual(t, "benign cache hit", &batch, want)

	// The adversarial session: a white-box AE against the target engine.
	host, err := sys.GenerateSpeech("we keep the old book here", 323)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := sys.CraftWhiteBoxAE(host, "open the front door")
	if err != nil {
		t.Fatal(err)
	}
	if !ae.Success {
		t.Skip("white-box attack failed at quick scale; early-exit leg skipped")
	}
	aeWAV := encodeWAV(t, ae.AE)
	aeClip, err := audio.ReadWAV(bytes.NewReader(aeWAV))
	if err != nil {
		t.Fatal(err)
	}
	wantAE, err := sys.DetectCtx(context.Background(), aeClip)
	if err != nil {
		t.Fatal(err)
	}
	if !wantAE.Adversarial {
		t.Skip("quick-scale AE transferred to the auxiliaries; early-exit leg skipped")
	}

	aeEvents := streamNDJSON(t, base, aeWAV, 512)
	aeWindows, aeFinal := splitStreamEvents(t, aeEvents)
	assertDetectionEqual(t, "adversarial", aeFinal.Detection, wantAE)

	if aeFinal.EarlyExit == nil {
		t.Fatal("adversarial stream never early-exited")
	}
	last := aeWindows[len(aeWindows)-1]
	if !last.Stop || !last.Window.EarlyExit || last.Window.Verdict != VerdictAdversarial {
		t.Fatalf("flagging window not marked stop/early_exit/adversarial: %+v", last)
	}
	clipMS := float64(len(aeClip.Samples)) / float64(aeClip.SampleRate) * 1000
	if aeFinal.EarlyExit.AudioTimeMS >= clipMS {
		t.Fatalf("early exit at %.1f ms, not before end-of-stream (%.1f ms)",
			aeFinal.EarlyExit.AudioTimeMS, clipMS)
	}
	t.Logf("early exit: engine %s score %.4f under floor %.4f — time-to-flag %.1f ms of %.1f ms of audio (%.0f%% heard)",
		aeFinal.EarlyExit.Engine, aeFinal.EarlyExit.Score, aeFinal.EarlyExit.Floor,
		aeFinal.EarlyExit.AudioTimeMS, clipMS, 100*aeFinal.EarlyExit.AudioTimeMS/clipMS)

	// Streaming metrics accounted for both sessions.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(raw)
	for _, wantLine := range []string{
		"mvpears_stream_sessions_total 2",
		"mvpears_stream_early_exits_total 1",
		`mvpears_stream_windows_total{verdict="benign"}`,
		"mvpears_stream_window_seconds_count",
	} {
		if !strings.Contains(metrics, wantLine) {
			t.Fatalf("metrics missing %q", wantLine)
		}
	}
}

// TestE2EStreamingWebSocket drives the same benign fixture through the
// WebSocket endpoint: raw PCM16 frames in, the final verdict must again
// be bit-identical to the batch System verdict.
func TestE2EStreamingWebSocket(t *testing.T) {
	sys := e2eSystem(t)
	base := streamE2EServer(t, sys)

	benign, err := sys.GenerateSpeech("turn the lights off tonight", 456)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.DetectCtx(context.Background(), benign)
	if err != nil {
		t.Fatal(err)
	}
	pcm := make([]byte, 2*len(benign.Samples))
	for i, s := range benign.Samples {
		v := int16(s * 32767)
		pcm[2*i] = byte(v)
		pcm[2*i+1] = byte(uint16(v) >> 8)
	}

	c, err := stream.DialWS("ws" + strings.TrimPrefix(base, "http") + "/v1/detect/ws")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Frames split samples at odd byte offsets — one-byte frames
	// included — so the carry decoder joins bytes across frames both ways.
	frames := []int{1001, 1, 3, 998, 7, 1, 1024}
	for off, i := 0, 0; off < len(pcm); i++ {
		end := min(off+frames[i%len(frames)], len(pcm))
		if err := c.WriteMessage(stream.OpBinary, pcm[off:end]); err != nil {
			t.Fatal(err)
		}
		off = end
	}
	if err := c.WriteMessage(stream.OpText, []byte("end")); err != nil {
		t.Fatal(err)
	}

	var events []StreamEventJSON
	for {
		op, payload, err := c.ReadMessage()
		if err != nil {
			break // server closes after the final event
		}
		if op != stream.OpText {
			t.Fatalf("unexpected frame opcode %d", op)
		}
		var ev StreamEventJSON
		if err := json.Unmarshal(payload, &ev); err != nil {
			t.Fatalf("bad event %q: %v", payload, err)
		}
		events = append(events, ev)
	}
	windows, final := splitStreamEvents(t, events)
	if len(windows) == 0 {
		t.Fatal("websocket stream produced no provisional windows")
	}
	assertDetectionEqual(t, "websocket benign", final.Detection, want)

	// The same PCM through the NDJSON endpoint reaches the same final.
	clip := audio.PCM16{SampleRate: benign.SampleRate, Data: pcm}.Decode()
	_, ndjson := splitStreamEvents(t, streamNDJSON(t, base, encodeWAV(t, clip), 777))
	if got, want := ndjson.Detection, final.Detection; got.Verdict != want.Verdict ||
		!reflect.DeepEqual(got.Scores, want.Scores) || !reflect.DeepEqual(got.Transcriptions, want.Transcriptions) {
		t.Fatalf("NDJSON final %+v, WebSocket final %+v", got, want)
	}
}

// TestStreamSessionRejectionAndErrorRequestID covers the streaming legs
// of the unified observability contract: a full session table rejects
// with 429 AND accounts the rejection under
// mvpears_rejected_total{reason="stream_sessions"}, and a mid-stream
// failure's NDJSON error event echoes the client's X-Request-ID exactly
// like the batch error paths do.
func TestStreamSessionRejectionAndErrorRequestID(t *testing.T) {
	sys := e2eSystem(t)
	_, base := startE2EServer(t, Config{
		Backend: sys,
		Workers: 2,
		Stream: &StreamConfig{
			Window:      4000,
			Hop:         1000,
			MaxSessions: 1,
		},
	})

	// Hold the single session open over WebSocket…
	c, err := stream.DialWS("ws" + strings.TrimPrefix(base, "http") + "/v1/detect/ws")
	if err != nil {
		t.Fatal(err)
	}
	// …and reject the second opener with a counted 429.
	resp, err := http.Post(base+"/v1/detect/stream", "audio/wav", bytes.NewReader(wavBody(t, sys.SampleRate(), 256)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second session status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(raw), `mvpears_rejected_total{reason="stream_sessions"} 1`) {
		t.Error("metrics missing the stream_sessions rejection count")
	}
	c.Close() // free the session slot

	// A truncated WAV body fails mid-stream; the NDJSON error event must
	// carry the client's request ID (the 200 header is long gone, so the
	// event body is the only place it can live).
	clip, err := sys.GenerateSpeech("echo my id back", 99)
	if err != nil {
		t.Fatal(err)
	}
	wav := encodeWAV(t, clip)
	truncated := wav[:len(wav)-1000] // mid data chunk

	var events []StreamEventJSON
	deadline := time.Now().Add(5 * time.Second)
	for {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/detect/stream", bytes.NewReader(truncated))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "audio/wav")
		req.Header.Set("X-Request-ID", "stream-err-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests && time.Now().Before(deadline) {
			// The WS session above may still be tearing down.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("truncated stream status %d: %s", resp.StatusCode, b)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			var ev StreamEventJSON
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		resp.Body.Close()
		break
	}
	if len(events) == 0 {
		t.Fatal("truncated stream produced no events")
	}
	last := events[len(events)-1]
	if last.Event != StreamEventError || last.Error == "" {
		t.Fatalf("last event = %+v, want an error event", last)
	}
	if last.RequestID != "stream-err-1" {
		t.Fatalf("error event request_id %q, want the client-supplied stream-err-1", last.RequestID)
	}
}

// TestStreamDecodeSpanExcludesClientWait: the NDJSON decode span times
// the PCM decode alone, not the wait for the client's next chunk. A
// stream that pauses 300 ms mid-body must log a decode_ms far below it.
func TestStreamDecodeSpanExcludesClientWait(t *testing.T) {
	sys := e2eSystem(t)
	var logBuf syncBuffer
	_, base := startE2EServer(t, Config{
		Backend:   sys,
		Workers:   2,
		AccessLog: &logBuf,
		Stream:    &StreamConfig{Window: 4000, Hop: 1000},
	})
	clip, err := sys.GenerateSpeech("open the front door", 7)
	if err != nil {
		t.Fatal(err)
	}
	wav := encodeWAV(t, clip)
	const pause = 300 * time.Millisecond
	pr, pw := io.Pipe()
	go func() {
		half := len(wav) / 2
		if _, err := pw.Write(wav[:half]); err != nil {
			return
		}
		time.Sleep(pause)
		_, _ = pw.Write(wav[half:])
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/detect/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "audio/wav")
	req.Header.Set("X-Request-ID", "decode-span-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"event":"final"`) {
		t.Fatalf("stream ended without a final event: %s", body)
	}

	var line map[string]any
	waitFor(t, func() bool {
		for _, l := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(l, `"request_id":"decode-span-1"`) {
				return json.Unmarshal([]byte(l), &line) == nil
			}
		}
		return false
	})
	stages, _ := line["stages"].(map[string]any)
	decodeMS, ok := stages["decode_ms"].(float64)
	if !ok {
		t.Fatalf("access-log line has no stages.decode_ms: %v", line)
	}
	if limit := float64(pause/time.Millisecond) / 3; decodeMS >= limit {
		t.Fatalf("decode_ms %.3f counts the client's %v pause (want < %.0f)", decodeMS, pause, limit)
	}
}

// TestShutdownCutsStreamsOfSupersededModels: a session opened before a hot
// reload streams on the superseded model's manager. It counts in the
// open-sessions gauge, and Shutdown cuts it like a current one: an error
// event, a prompt return, and no goroutine left behind.
func TestShutdownCutsStreamsOfSupersededModels(t *testing.T) {
	sys := e2eSystem(t)
	baseline := runtime.NumGoroutine()
	s, err := New(Config{
		Backend: sys,
		Workers: 2,
		Stream:  &StreamConfig{Window: 4000, Hop: 1000},
		Reload:  func() (Backend, error) { return sys, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = s.Serve(ln) }()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	gauge := func() string {
		var b bytes.Buffer
		if err := s.DumpMetrics(&b); err != nil {
			t.Fatal(err)
		}
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, "mvpears_stream_sessions_open ") {
				return l
			}
		}
		return ""
	}

	clip, err := sys.GenerateSpeech("open the front door", 7)
	if err != nil {
		t.Fatal(err)
	}
	wav := encodeWAV(t, clip)
	half := len(wav) / 2
	pr, pw := io.Pipe()
	defer pw.Close()
	go func() { _, _ = pw.Write(wav[:half]) }()
	resp, err := client.Post("http://"+ln.Addr().String()+"/v1/detect/stream", "audio/wav", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := make(chan StreamEventJSON, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev StreamEventJSON
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				events <- ev
			}
		}
	}()
	if ev := <-events; ev.Event != StreamEventWindow {
		t.Fatalf("first event %+v, want a window", ev)
	}
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if got := gauge(); got != "mvpears_stream_sessions_open 1" {
		t.Fatalf("gauge after reload reads %q, want the superseded session counted", got)
	}

	start := time.Now()
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return gauge() == "mvpears_stream_sessions_open 0" })
	// The session's next push meets the cut.
	go func() { _, _ = pw.Write(wav[half:]) }()
	for cut := false; !cut; {
		select {
		case ev, ok := <-events:
			if !ok || ev.Event == StreamEventFinal {
				t.Fatalf("the superseded session ended without an error event (last %+v)", ev)
			}
			cut = ev.Event == StreamEventError
		case <-time.After(5 * time.Second):
			t.Fatal("the superseded session was not cut")
		}
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Shutdown took %v: the superseded session held the drain", d)
	}
	<-serveDone
	resp.Body.Close()
	pw.Close()
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
