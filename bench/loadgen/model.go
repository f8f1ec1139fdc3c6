package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mvpears"
	"mvpears/internal/audio"
	"mvpears/internal/speech"
)

// aeHostSeed seeds the host utterances the cached AEs are crafted from.
// The AEs belong to the model (they attack its target engine), not to a
// run's --seed: crafting takes 0.2-6 s each, far too long to repeat per
// run, so they are made once beside the model artifact. A run's seed
// still decides which AE each request carries and its low-bit variant.
const aeHostSeed = 20190624

// buildDaemon compiles ./cmd/mvpearsd into dir. It must run from the
// module root, which is where `go run ./bench/loadgen` runs.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "mvpearsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mvpearsd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building ./cmd/mvpearsd: %v\n%s", err, out)
	}
	return bin, nil
}

// coldBootstrap runs `mvpearsd -bootstrap` on a missing artifact and
// returns the seconds from exec to the first /readyz 200: quick-scale
// training, saving the artifact, and the boot.
func coldBootstrap(bin, dir, model string) (float64, error) {
	if err := os.Remove(model); err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	d, err := startDaemon(bin, dir, model, []string{"-bootstrap"}, 5*time.Minute)
	if err != nil {
		return 0, err
	}
	return d.bootSeconds, d.stop()
}

// modelCache is the trained artifact and the AEs crafted against it.
// It lives in the work directory and is reused by later runs of the
// same checkout, like a build product.
type modelCache struct {
	model string   // path of the artifact
	aes   [][]byte // numAE WAV files
	// bootstrapSeconds is non-zero when this call trained the model.
	bootstrapSeconds float64
}

func aePath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("ae-%02d.wav", i)) }

// prepareModel loads the cache in dir, or fills it: cold-bootstrap the
// artifact through the daemon, then craft the AEs in-process.
func prepareModel(bin, dir string) (*modelCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mc := &modelCache{model: filepath.Join(dir, "model.gob")}
	if _, err := os.Stat(mc.model); err != nil {
		// Train into a scratch name and rename, so that an interrupted
		// bootstrap never leaves a half-written artifact in the cache.
		tmp := mc.model + ".tmp"
		secs, err := coldBootstrap(bin, dir, tmp)
		if err != nil {
			return nil, fmt.Errorf("cold bootstrap: %w", err)
		}
		mc.bootstrapSeconds = secs
		for i := 0; i < numAE; i++ {
			_ = os.Remove(aePath(dir, i)) // AEs of an older model are stale
		}
		if err := os.Rename(tmp, mc.model); err != nil {
			return nil, err
		}
	}
	for i := 0; i < numAE; i++ {
		wav, err := os.ReadFile(aePath(dir, i))
		if err != nil {
			mc.aes = nil
			break
		}
		mc.aes = append(mc.aes, wav)
	}
	if mc.aes != nil {
		return mc, nil
	}
	sys, err := mvpears.Open(mc.model)
	if err != nil {
		return nil, err
	}
	mc.aes, err = craftAEs(sys)
	if err != nil {
		return nil, err
	}
	for i, wav := range mc.aes {
		if err := os.WriteFile(aePath(dir, i), wav, 0o644); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// craftAEs returns numAE successful white-box AEs: candidate i attacks
// host utterance i with command i (cycling), candidates run on every
// core, and the first numAE successes in candidate order are kept, so
// the set does not depend on scheduling.
func craftAEs(sys *mvpears.System) ([][]byte, error) {
	const candidates = 4 * numAE
	hosts, err := speech.GenerateUtterances(speech.NewSynthesizer(sys.SampleRate()), candidates, aeHostSeed)
	if err != nil {
		return nil, err
	}
	cmds := speech.MaliciousCommands
	results := make([][]byte, candidates)
	errs := make([]error, candidates)
	var (
		mu        sync.Mutex
		next      int
		successes int
		wg        sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				enough := successes >= numAE
				mu.Unlock()
				if i >= candidates || enough {
					return
				}
				res, err := sys.CraftWhiteBoxAE(hosts[i].Clip, cmds[i%len(cmds)])
				if err != nil {
					errs[i] = err
					return
				}
				if !res.Success {
					continue
				}
				var buf bytes.Buffer
				if err := audio.WriteWAV(&buf, res.AE); err != nil {
					errs[i] = err
					return
				}
				results[i] = buf.Bytes()
				mu.Lock()
				successes++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	var out [][]byte
	for i := range results {
		if errs[i] != nil {
			return nil, fmt.Errorf("crafting AE %d: %w", i, errs[i])
		}
		if results[i] != nil && len(out) < numAE {
			out = append(out, results[i])
		}
	}
	if len(out) < numAE {
		return nil, fmt.Errorf("only %d of %d white-box attacks succeeded", len(out), candidates)
	}
	return out, nil
}
