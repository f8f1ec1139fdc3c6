// Quickstart: train an MVP-EARS system, run it on a benign utterance,
// then craft a white-box adversarial example against the target engine
// and watch the detector catch it.
package main

import (
	"context"
	"fmt"
	"log"

	"mvpears"
)

func main() {
	// Build trains five diverse ASR engines from scratch, crafts an AE
	// training set against the target, and fits the SVM detector.
	// WithQuickScale keeps this in the tens-of-seconds range.
	fmt.Println("building MVP-EARS (quick scale)...")
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}

	// 1. A benign utterance passes.
	benign, err := sys.GenerateSpeech("please play the music in the kitchen", 42)
	if err != nil {
		log.Fatal(err)
	}
	det, err := sys.DetectCtx(context.Background(), benign)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbenign input -> adversarial=%v\n", det.Adversarial)
	for name, text := range det.Transcriptions {
		fmt.Printf("  %-4s heard %q\n", name, text)
	}
	fmt.Printf("  similarity scores: %.3f\n", det.Scores)

	// 2. Craft a white-box AE embedding a malicious command.
	host, err := sys.GenerateSpeech("the story was long and the night was cold", 43)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncrafting a white-box AE (gradient attack through the MFCC front end)...")
	ae, err := sys.CraftWhiteBoxAE(host, "unlock the back door")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack success=%v: DS0 hears %q (waveform similarity %.2f)\n",
		ae.Success, ae.FinalText, ae.Similarity)

	// 3. The detector flags it: the auxiliaries still hear (roughly) the
	// host sentence, so the similarity scores collapse.
	det, err = sys.DetectCtx(context.Background(), ae.AE)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAE input -> adversarial=%v\n", det.Adversarial)
	for name, text := range det.Transcriptions {
		fmt.Printf("  %-4s heard %q\n", name, text)
	}
	fmt.Printf("  similarity scores: %.3f\n", det.Scores)
}
