// Batch audit: screen a directory of WAV files for adversarial examples,
// the way a voice-assistant vendor might audit logged audio. The example
// first creates a mixed corpus on disk (benign clips plus white-box,
// black-box and noise AEs), then audits it with both the trained
// classifier and the benign-only threshold detector, reporting per-file
// verdicts and aggregate precision/recall.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mvpears"
)

func main() {
	dir, err := os.MkdirTemp("", "mvpears-audit-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fmt.Println("building MVP-EARS (quick scale)...")
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(4))
	if err != nil {
		log.Fatal(err)
	}

	// Populate the audit directory. File names encode ground truth only
	// for the final report — the detector never sees them.
	truth := map[string]bool{} // file -> is adversarial
	write := func(name string, clip *mvpears.Clip, adversarial bool) {
		path := filepath.Join(dir, name)
		if err := mvpears.SaveWAV(path, clip); err != nil {
			log.Fatal(err)
		}
		truth[name] = adversarial
	}
	benignTexts := []string{
		"the music is loud tonight",
		"please read the news again",
		"the garden was green and warm",
		"we walk to school every morning",
	}
	for i, text := range benignTexts {
		clip, err := sys.GenerateSpeech(text, int64(100+i))
		if err != nil {
			log.Fatal(err)
		}
		write(fmt.Sprintf("log_%02d.wav", i), clip, false)
	}
	fmt.Println("crafting AEs for the audit corpus...")
	host, err := sys.GenerateSpeech("the old radio in the kitchen is very quiet", 200)
	if err != nil {
		log.Fatal(err)
	}
	if wb, err := sys.CraftWhiteBoxAE(host, "unlock the car"); err != nil {
		log.Fatal(err)
	} else if wb.Success {
		write("log_90.wav", wb.AE, true)
	}
	host2, err := sys.GenerateSpeech("the child will bring the book to the office", 201)
	if err != nil {
		log.Fatal(err)
	}
	if bb, err := sys.CraftBlackBoxAE(host2, "send text", 9); err != nil {
		log.Fatal(err)
	} else if bb.Success {
		write("log_91.wav", bb.AE, true)
	}
	host3, err := sys.GenerateSpeech("the river runs past the old town", 202)
	if err != nil {
		log.Fatal(err)
	}
	nt, _, err := sys.CraftNonTargetedAE(host3, 9)
	if err != nil {
		log.Fatal(err)
	}
	write("log_92.wav", nt, true)

	// Audit pass 1: the trained classifier.
	files, err := filepath.Glob(filepath.Join(dir, "*.wav"))
	if err != nil {
		log.Fatal(err)
	}
	sort.Strings(files)
	fmt.Printf("\nauditing %d files with the SVM detector:\n", len(files))
	clips := make([]*mvpears.Clip, len(files))
	for i, f := range files {
		if clips[i], err = sys.LoadClip(f); err != nil {
			log.Fatal(err)
		}
	}
	dets, err := sys.DetectBatchCtx(context.Background(), clips)
	if err != nil {
		log.Fatal(err)
	}
	var tp, fp, fn, tn int
	for i, f := range files {
		det := dets[i]
		name := filepath.Base(f)
		isAE := truth[name]
		verdict := "benign     "
		if det.Adversarial {
			verdict = "ADVERSARIAL"
		}
		mark := " "
		switch {
		case det.Adversarial && isAE:
			tp++
			mark = "✓"
		case det.Adversarial && !isAE:
			fp++
			mark = "✗ (false alarm)"
		case !det.Adversarial && isAE:
			fn++
			mark = "✗ (missed!)"
		default:
			tn++
			mark = "✓"
		}
		fmt.Printf("  %-12s %s  heard=%q  %s\n", name, verdict, trunc(det.Transcriptions["DS0"], 34), mark)
	}
	fmt.Printf("summary: TP=%d FP=%d FN=%d TN=%d\n", tp, fp, fn, tn)

	// Audit pass 2: the benign-only threshold detector (no AE training
	// data at all), as in the paper's unseen-attack experiment.
	fmt.Println("\ncalibrating a benign-only threshold detector (DS0+{AT}, FPR budget 5%)...")
	var calib []*mvpears.Clip
	for i := 0; i < 12; i++ {
		clip, err := sys.GenerateSpeech(benignTexts[i%len(benignTexts)], int64(300+i))
		if err != nil {
			log.Fatal(err)
		}
		calib = append(calib, clip)
	}
	td, err := sys.CalibrateThreshold(mvpears.AT, calib, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("threshold = %.3f\n", td.Threshold())
	for i, f := range files {
		flagged, score, err := td.Detect(clips[i])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s score %.3f -> adversarial=%v (truth %v)\n",
			filepath.Base(f), score, flagged, truth[filepath.Base(f)])
	}
}

func trunc(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return strings.TrimSpace(s[:n]) + "..."
}
