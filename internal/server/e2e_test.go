package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mvpears"
	"mvpears/internal/audio"
)

var (
	e2eOnce sync.Once
	e2eSys  *mvpears.System
	e2eErr  error
)

// e2eSystem trains one quick-scale system for the whole test binary.
func e2eSystem(t *testing.T) *mvpears.System {
	t.Helper()
	if testing.Short() {
		t.Skip("quick-scale training skipped with -short")
	}
	e2eOnce.Do(func() {
		e2eSys, e2eErr = mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(1))
	})
	if e2eErr != nil {
		t.Fatalf("building system: %v", e2eErr)
	}
	return e2eSys
}

func encodeWAV(t *testing.T, c *mvpears.Clip) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := audio.WriteWAV(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestE2EPersistedModelServing is the acceptance scenario: persist a
// trained system, boot mvpearsd's server from the artifact on a random
// port, POST benign and adversarial fixture WAVs over real TCP, and
// assert the daemon's verdicts are identical to the in-memory system's.
// Finally SIGTERM drains the server cleanly and /metrics reported the
// traffic along the way.
func TestE2EPersistedModelServing(t *testing.T) {
	sys := e2eSystem(t)

	// Persist and reload: the server must boot from the artifact without
	// retraining.
	modelPath := filepath.Join(t.TempDir(), "model.gob")
	if err := sys.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := mvpears.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{Backend: loaded, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	runDone := make(chan error, 1)
	go func() { runDone <- s.RunUntilSignal(ln, 10*time.Second, syscall.SIGTERM) }()

	// Fixtures. Round-trip each clip through WAV encoding first so the
	// in-memory reference detection sees bit-identical samples to what the
	// server decodes.
	benign, err := sys.GenerateSpeech("the door is open", 123)
	if err != nil {
		t.Fatal(err)
	}
	benignWAV := encodeWAV(t, benign)
	posts := []struct {
		name string
		wav  []byte
	}{{"benign", benignWAV}}

	host, err := sys.GenerateSpeech("we keep the old book here", 323)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := sys.CraftWhiteBoxAE(host, "open the front door")
	if err != nil {
		t.Fatal(err)
	}
	if ae.Success {
		posts = append(posts, struct {
			name string
			wav  []byte
		}{"adversarial", encodeWAV(t, ae.AE)})
	} else {
		t.Log("white-box attack failed at quick scale; serving benign only")
	}

	for _, p := range posts {
		decoded, err := audio.ReadWAV(bytes.NewReader(p.wav))
		if err != nil {
			t.Fatal(err)
		}
		want, err := sys.DetectCtx(context.Background(), decoded)
		if err != nil {
			t.Fatal(err)
		}
		if p.name == "benign" && want.Adversarial {
			t.Fatal("reference system called the benign fixture adversarial")
		}
		if p.name == "adversarial" && !want.Adversarial {
			t.Log("quick-scale AE transferred to the auxiliaries; asserting server parity only")
		}

		resp, err := http.Post(base+"/v1/detect", "audio/wav", bytes.NewReader(p.wav))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("%s: status %d: %s", p.name, resp.StatusCode, b)
		}
		got := decodeBody[DetectionJSON](t, resp)
		resp.Body.Close()

		// The served verdict must be identical to the in-memory system's:
		// this is the persistence round-trip guarantee under the serving
		// path.
		if got.Adversarial != want.Adversarial {
			t.Fatalf("%s: server verdict %v, in-memory %v", p.name, got.Adversarial, want.Adversarial)
		}
		if len(got.Scores) != len(want.Scores) {
			t.Fatalf("%s: score width %d vs %d", p.name, len(got.Scores), len(want.Scores))
		}
		for i := range got.Scores {
			if math.Abs(got.Scores[i]-want.Scores[i]) > 1e-12 {
				t.Fatalf("%s: score %d diverged: %g vs %g", p.name, i, got.Scores[i], want.Scores[i])
			}
		}
		for engine, text := range want.Transcriptions {
			if got.Transcriptions[engine] != text {
				t.Fatalf("%s: %s transcribed %q, in-memory %q", p.name, engine, got.Transcriptions[engine], text)
			}
		}
	}

	// Batch over the same fixtures: per-file verdicts in input order.
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range posts {
		fw, err := mw.CreateFormFile("file", p.name+".wav")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(p.wav)
	}
	mw.Close()
	resp, err := http.Post(base+"/v1/detect/batch", mw.FormDataContentType(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("batch status %d: %s", resp.StatusCode, b)
	}
	batch := decodeBody[BatchResponseJSON](t, resp)
	resp.Body.Close()
	if len(batch.Results) != len(posts) {
		t.Fatalf("batch results %d, want %d", len(batch.Results), len(posts))
	}
	for i, p := range posts {
		if batch.Results[i].File != p.name+".wav" {
			t.Fatalf("batch order: result %d is %q", i, batch.Results[i].File)
		}
	}

	// The daemon accounted for the traffic.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(raw)
	for _, want := range []string{
		fmt.Sprintf(`mvpears_requests_total{route="detect",code="200"} %d`, len(posts)),
		`mvpears_requests_total{route="detect_batch",code="200"} 1`,
		`mvpears_detections_total{verdict="benign"}`,
		`mvpears_request_duration_seconds_bucket{route="detect",le="+Inf"}`,
		fmt.Sprintf(`mvpears_request_duration_seconds_count{route="detect"} %d`, len(posts)),
		`mvpears_detect_stage_seconds_bucket{stage="recognition"`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// SIGTERM drains: RunUntilSignal returns nil and the port closes.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestE2ESignalDrainsInFlight pins the drain ordering under a real
// listener and a real signal: a request running when SIGTERM lands must
// complete with 200 before RunUntilSignal returns.
func TestE2ESignalDrainsInFlight(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	stub := instantStub()
	inner := stub.detect
	stub.detect = func(ctx context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		entered <- struct{}{}
		<-block
		return inner(ctx, clip)
	}
	s, err := New(Config{Backend: stub, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	runDone := make(chan error, 1)
	go func() { runDone <- s.RunUntilSignal(ln, 10*time.Second, syscall.SIGTERM) }()

	result := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/detect", "audio/wav", bytes.NewReader(wavBody(t, 8000, 256)))
		if err != nil {
			t.Error(err)
			result <- 0
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		result <- resp.StatusCode
	}()
	<-entered

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Give the drain a moment to begin, then release the backend.
	waitFor(t, s.draining.Load)
	close(block)

	if code := <-result; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}
