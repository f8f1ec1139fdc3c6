package server

import (
	"bytes"
	"context"
	"flag"
	"io"
	"log"
	"mime/multipart"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mvpears"
	"mvpears/internal/vcache"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/exposition.golden from the current exposition")

// goldenBackend answers by clip length, so the request mix below covers a
// cascaded short-circuit, a sampled full-ensemble run, an adversarial
// verdict and a plain benign one.
func goldenBackend() *fpStub {
	b := instantStub()
	b.detect = func(_ context.Context, clip *mvpears.Clip) (*mvpears.Detection, error) {
		det := benignDetection()
		switch len(clip.Samples) {
		case 256:
			det.Scores = []float64{0.97, 0.9}
			det.Cascade = &mvpears.CascadeDecision{ShortCircuit: true, EnginesRun: []string{"DS1"}, Imputed: []bool{false, true}}
		case 384:
			det.Adversarial = true
			det.Scores = []float64{0.31, 0.22}
			det.Cascade = &mvpears.CascadeDecision{SampledFull: true, EnginesRun: []string{"DS1", "GCS"}, Imputed: []bool{false, false}}
		}
		return det, nil
	}
	return &fpStub{b, "golden-model"}
}

// maskExposition blanks what varies between runs: the values of the
// wall-clock histograms' buckets and sums (their counts stay) and the
// build identity labels.
func maskExposition(s string) string {
	timing := regexp.MustCompile(`(?m)^(mvpears_\w+_seconds_(?:bucket|sum)\S*) \S+$`)
	s = timing.ReplaceAllString(s, "$1 <t>")
	build := regexp.MustCompile(`(?m)^mvpears_build_info\{.*\} `)
	return build.ReplaceAllString(s, "mvpears_build_info{<masked>} ")
}

// TestExpositionGolden serves a fixed request mix through a stub-backed
// server and compares /metrics, masked, to testdata/exposition.golden:
// family order, HELP/TYPE lines, label rendering and sorting, value
// formatting, and the children that exist before any traffic touches
// them. The shared cache's miss counter is pushed past 10^6 first, so a
// sampled counter rendered as a float (1e+06) would show. Regenerate with
// `go test ./internal/server -run TestExpositionGolden -update`.
func TestExpositionGolden(t *testing.T) {
	cache := vcache.New[*verdictEntry](64, 1<<20)
	for range 1_000_000 {
		cache.Get("never-cached")
	}
	_, ts := newTestServer(t, Config{
		Backend: goldenBackend(),
		Workers: 2,
		Cache:   cache,
		Logger:  log.New(io.Discard, "", 0),
	})
	short, adv, plain := wavBody(t, 8000, 256), wavBody(t, 8000, 384), wavBody(t, 8000, 512)

	do := func(method, path, contentType string, body []byte, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}
	do("POST", "/v1/detect", "audio/wav", short, 200) // fresh, short-circuited
	do("POST", "/v1/detect", "audio/wav", short, 200) // cache hit
	do("POST", "/v1/detect", "audio/wav", adv, 200)   // fresh, adversarial
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name string
		body []byte
	}{{"short.wav", short}, {"plain.wav", plain}} {
		fw, err := mw.CreateFormFile("file", part.name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(part.body)
	}
	mw.Close()
	do("POST", "/v1/detect/batch", mw.FormDataContentType(), buf.Bytes(), 200) // one cached part, one fresh
	do("POST", "/v1/detect", "audio/wav", []byte("not a wav"), 400)
	do("GET", "/v1/detect", "", nil, 405)
	do("GET", "/healthz", "", nil, 200)
	do("GET", "/readyz", "", nil, 200)

	got := maskExposition(metricsBody(t, ts.URL))
	path := filepath.Join("testdata", "exposition.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
