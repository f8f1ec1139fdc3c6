package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The wire schema, as the benchmark reads it. These are the benchmark's
// own structs on purpose: it pins the daemon's JSON contract, not the Go
// types that happen to render it.

type cascadeWire struct {
	ShortCircuit bool     `json:"short_circuit"`
	EnginesRun   []string `json:"engines_run"`
}

type detectionWire struct {
	Verdict        string            `json:"verdict"`
	Adversarial    bool              `json:"adversarial"`
	Scores         []float64         `json:"scores"`
	Auxiliaries    []string          `json:"auxiliaries"`
	Transcriptions map[string]string `json:"transcriptions"`
	Cached         bool              `json:"cached"`
	Cascade        *cascadeWire      `json:"cascade"`
}

type batchWire struct {
	Results []struct {
		File string `json:"file"`
		detectionWire
	} `json:"results"`
}

type streamEventWire struct {
	Event  string `json:"event"`
	Window *struct {
		Index int `json:"index"`
	} `json:"window"`
	Detection *detectionWire `json:"detection"`
	Windows   int            `json:"windows"`
	EarlyExit *struct {
		AudioTimeMS float64 `json:"audio_time_ms"`
	} `json:"early_exit"`
	Stop  bool   `json:"stop"`
	Error string `json:"error"`
}

// checkDetection validates one verdict's schema and its cached flag.
func checkDetection(d *detectionWire, wantCached bool) error {
	switch {
	case d.Verdict != "benign" && d.Verdict != "adversarial":
		return fmt.Errorf("verdict %q", d.Verdict)
	case d.Adversarial != (d.Verdict == "adversarial"):
		return fmt.Errorf("verdict %q with adversarial=%v", d.Verdict, d.Adversarial)
	case len(d.Auxiliaries) == 0 || len(d.Scores) != len(d.Auxiliaries):
		return fmt.Errorf("%d scores for %d auxiliaries", len(d.Scores), len(d.Auxiliaries))
	case len(d.Transcriptions) != len(d.Auxiliaries)+1:
		return fmt.Errorf("%d transcriptions for %d engines", len(d.Transcriptions), len(d.Auxiliaries)+1)
	case d.Cached != wantCached:
		return fmt.Errorf("cached=%v, want %v", d.Cached, wantCached)
	}
	for i, s := range d.Scores {
		if math.IsNaN(s) || s < 0 || s > 1 {
			return fmt.Errorf("score %d is %v", i, s)
		}
		if _, ok := d.Transcriptions[d.Auxiliaries[i]]; !ok {
			return fmt.Errorf("no transcription for auxiliary %s", d.Auxiliaries[i])
		}
	}
	return nil
}

// result is the record of one operation.
type result struct {
	k         uint64
	spec      opSpec
	end       time.Time // the last response byte arrived
	latencyMS float64   // closed loop: from send; open loop: from the due time
	lateMS    float64   // open loop: how long after its due time it was sent
	err       error     // nil: a correct 200
	// dets holds the verdicts (one, or one per batch part) when the
	// operation was kept for the reference check.
	dets []detectionWire
	// Stream sessions only.
	windows     int
	flagged     bool
	flagAudioMS float64
}

// streamChunk is 100 ms of 8 kHz 16-bit audio.
const streamChunkMS = 100

// client sends operations over `connections` keep-alive connections to
// one daemon.
type client struct {
	base string
	http *http.Client
	co   *corpus
	seed int64
	w    *workload
	// keepEvery-th operations (seeded) keep their verdicts for the
	// bit-for-bit reference check; 1 keeps all.
	keepEvery uint64
}

func newClient(base string, co *corpus, seed int64, w *workload, keepEvery uint64) *client {
	return &client{
		base: base,
		http: &http.Client{
			Transport: &http.Transport{
				MaxConnsPerHost:     connections,
				MaxIdleConnsPerHost: connections,
				DisableCompression:  true,
			},
			Timeout: 30 * time.Second,
		},
		co: co, seed: seed, w: w, keepEvery: keepEvery,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) keeps(k uint64) bool { return draw(c.seed, k, 6)%c.keepEvery == 0 }

// scratch is one client goroutine's reusable buffers.
type scratch struct {
	body []byte
	form bytes.Buffer
	resp bytes.Buffer
}

// post sends one request and reads the whole response into sc.resp. It
// returns when the last response byte has arrived.
func (c *client) post(path, contentType string, body io.Reader, sc *scratch) (time.Time, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, body)
	if err != nil {
		return time.Now(), err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Now(), err
	}
	sc.resp.Reset()
	_, err = sc.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return end, err
	}
	if resp.StatusCode != http.StatusOK {
		return end, fmt.Errorf("status %d: %.200s", resp.StatusCode, sc.resp.Bytes())
	}
	return end, nil
}

// wantCached says whether part i of an operation must be answered from
// the cache. A duplicate pair is checked as a pair, after the phase.
func wantCached(spec opSpec, i int) bool {
	switch spec.class {
	case classHit:
		return true
	case classBatch:
		return spec.parts[i].variant == 0
	}
	return false
}

// do performs operation k and returns its record. from is the instant
// latency counts from (the due time in an open loop).
func (c *client) do(k uint64, spec opSpec, from time.Time, sc *scratch) result {
	res := result{k: k, spec: spec}
	var end time.Time
	switch spec.class {
	case classStream:
		end, res.err = c.doStream(&res, sc)
	case classBatch:
		end, res.err = c.doBatch(&res, sc)
	default:
		sc.body = c.co.payload(spec.parts[0], sc.body)
		end, res.err = c.post("/v1/detect", "audio/wav", bytes.NewReader(sc.body), sc)
		if res.err == nil {
			var det detectionWire
			if err := json.Unmarshal(sc.resp.Bytes(), &det); err != nil {
				res.err = fmt.Errorf("malformed JSON: %v", err)
			} else if spec.class == classDup {
				// Either order is right for a pair; countDupPairs checks
				// the pair as a whole.
				res.err = checkDetection(&det, det.Cached)
				res.dets = []detectionWire{det}
			} else if res.err = checkDetection(&det, wantCached(spec, 0)); res.err == nil && c.keeps(k) {
				res.dets = []detectionWire{det}
			}
		}
	}
	res.end = end
	res.latencyMS = float64(end.Sub(from)) / float64(time.Millisecond)
	return res
}

func (c *client) doBatch(res *result, sc *scratch) (time.Time, error) {
	sc.form.Reset()
	mw := multipart.NewWriter(&sc.form)
	for i, p := range res.spec.parts {
		fw, err := mw.CreateFormFile("file", fmt.Sprintf("p%d.wav", i))
		if err != nil {
			return time.Now(), err
		}
		sc.body = c.co.payload(p, sc.body)
		fw.Write(sc.body) // bytes.Buffer writes cannot fail
	}
	if err := mw.Close(); err != nil {
		return time.Now(), err
	}
	end, err := c.post("/v1/detect/batch", mw.FormDataContentType(), bytes.NewReader(sc.form.Bytes()), sc)
	if err != nil {
		return end, err
	}
	var batch batchWire
	if err := json.Unmarshal(sc.resp.Bytes(), &batch); err != nil {
		return end, fmt.Errorf("malformed JSON: %v", err)
	}
	if len(batch.Results) != len(res.spec.parts) {
		return end, fmt.Errorf("%d results for %d parts", len(batch.Results), len(res.spec.parts))
	}
	for i := range batch.Results {
		r := &batch.Results[i]
		if want := fmt.Sprintf("p%d.wav", i); r.File != want {
			return end, fmt.Errorf("result %d is for %q, want %q", i, r.File, want)
		}
		if err := checkDetection(&r.detectionWire, wantCached(res.spec, i)); err != nil {
			return end, fmt.Errorf("part %d: %v", i, err)
		}
		if c.keeps(res.k) {
			res.dets = append(res.dets, r.detectionWire)
		}
	}
	return end, nil
}

// doStream runs one streaming session: the WAV goes out in 100 ms
// chunks as fast as the daemon takes them while NDJSON events are read
// full-duplex. The chunks are unpaced, so the whole body is usually on
// the wire before the first window event returns; a stop:true event is
// recorded (flagged, flagAudioMS) but cannot shorten the session.
func (c *client) doStream(res *result, sc *scratch) (time.Time, error) {
	sc.body = c.co.payload(res.spec.parts[0], sc.body)
	wav := sc.body
	chunk := c.co.rate * 2 * streamChunkMS / 1000
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for off := 0; off < len(wav); off += chunk {
			if _, err := pw.Write(wav[off:min(off+chunk, len(wav))]); err != nil {
				return // the reader side failed and closed the pipe
			}
		}
		pw.Close()
	}()
	// The sender must be done with sc.body before the scratch is reused.
	defer wg.Wait()
	defer pr.Close()

	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/detect/stream", pr)
	if err != nil {
		return time.Now(), err
	}
	req.Header.Set("Content-Type", "audio/wav")
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Now(), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return time.Now(), fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var final *streamEventWire
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 0, 16<<10), 1<<20)
	for lines.Scan() {
		var ev streamEventWire
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			return time.Now(), fmt.Errorf("malformed NDJSON line: %v", err)
		}
		switch {
		case final != nil:
			return time.Now(), fmt.Errorf("%s event after the final", ev.Event)
		case ev.Event == "window" && ev.Window != nil:
			if ev.Window.Index != res.windows {
				return time.Now(), fmt.Errorf("window %d arrived as number %d", ev.Window.Index, res.windows)
			}
			res.windows++
			res.flagged = res.flagged || ev.Stop
		case ev.Event == "final" && ev.Detection != nil:
			final = &ev
		default:
			return time.Now(), fmt.Errorf("stream %s event: %s", ev.Event, ev.Error)
		}
	}
	end := time.Now()
	if err := lines.Err(); err != nil {
		return end, err
	}
	if final == nil {
		return end, fmt.Errorf("stream ended without a final event")
	}
	if final.Windows != res.windows {
		return end, fmt.Errorf("final counts %d windows, %d arrived", final.Windows, res.windows)
	}
	if res.flagged != (final.EarlyExit != nil) {
		return end, fmt.Errorf("stop event %v but early_exit record %v", res.flagged, final.EarlyExit != nil)
	}
	if final.EarlyExit != nil {
		res.flagAudioMS = final.EarlyExit.AudioTimeMS
	}
	if err := checkDetection(final.Detection, false); err != nil {
		return end, err
	}
	if c.keeps(res.k) {
		res.dets = []detectionWire{*final.Detection}
	}
	return end, nil
}

// phase is the outcome of one warm-up or timed stretch of load.
type phase struct {
	results []result
	wall    time.Duration // start -> last response
	nextK   uint64
}

// runClosed drives `connections` clients back to back for dur: each
// sends its next request when the previous one completes. Operations
// take consecutive k from firstK.
func (c *client) runClosed(firstK uint64, dur time.Duration) phase {
	var next atomic.Uint64
	next.Store(firstK)
	per := make([][]result, connections)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				k := next.Add(1) - 1
				per[i] = append(per[i], c.do(k, c.w.spec(c.co, c.seed, k), now, &sc))
			}
		}()
	}
	wg.Wait()
	ph := phase{wall: time.Since(start), nextK: next.Load()}
	for _, r := range per {
		ph.results = append(ph.results, r...)
	}
	return ph
}

// runOpen sends the schedule's arrivals at their due times regardless
// of how the daemon is doing. An arrival whose due time passes while
// both connections are busy goes out late; its latency still counts
// from the due time, so a stall is charged to every request it delays,
// and the lateness is recorded.
func (c *client) runOpen(sched []arrival, dur time.Duration) phase {
	var next atomic.Int64
	per := make([][]result, connections)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for {
				j := int(next.Add(1) - 1)
				if j >= len(sched) {
					return
				}
				due := start.Add(sched[j].due)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				late := time.Since(due)
				res := c.do(sched[j].k, c.w.spec(c.co, c.seed, sched[j].k), due, &sc)
				res.lateMS = float64(late) / float64(time.Millisecond)
				per[i] = append(per[i], res)
			}
		}()
	}
	wg.Wait()
	ph := phase{wall: max(time.Since(start), dur)}
	for _, r := range per {
		ph.results = append(ph.results, r...)
	}
	return ph
}

// countDupPairs checks the duplicate pairs of a phase. The clip is
// never-seen, so at least one of the two requests must have run the
// detection: a pair answered from the cache twice was served somebody
// else's verdict, and both its results are marked failed. Normally the
// other half shares the flight or hits the cache; a pair that ran the
// detection twice is correct but wasted work (the second request missed
// the cache before the first filled it and reached the flight group
// after the first had left), and is counted, not failed.
func countDupPairs(results []result) (doubleRuns int) {
	fresh := map[uint64]int{}
	for _, r := range results {
		if r.spec.class == classDup && r.err == nil && !r.dets[0].Cached {
			fresh[r.k]++
		}
	}
	for i := range results {
		r := &results[i]
		if r.spec.class == classDup && r.err == nil && fresh[r.k] == 0 {
			r.err = fmt.Errorf("both halves of a never-seen duplicate pair were answered as cached")
		}
	}
	for _, n := range fresh {
		if n > 1 {
			doubleRuns++
		}
	}
	return doubleRuns
}
