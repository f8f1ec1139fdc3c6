package mvpears_test

// Compile-checked godoc examples. They are not executed by `go test`
// (no Output comments) because Build trains models for tens of seconds;
// the test suite covers the same paths with shared fixtures.

import (
	"context"
	"fmt"
	"log"

	"mvpears"
)

// Example shows the end-to-end flow: build a system, detect benign audio,
// craft an AE against the target engine, detect it.
func Example() {
	sys, err := mvpears.Build(mvpears.WithQuickScale())
	if err != nil {
		log.Fatal(err)
	}
	clip, err := sys.GenerateSpeech("please play the music", 1)
	if err != nil {
		log.Fatal(err)
	}
	det, err := sys.DetectCtx(context.Background(), clip)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("benign flagged:", det.Adversarial)

	host, err := sys.GenerateSpeech("the story was long and cold", 2)
	if err != nil {
		log.Fatal(err)
	}
	ae, err := sys.CraftWhiteBoxAE(host, "unlock the back door")
	if err != nil {
		log.Fatal(err)
	}
	if ae.Success {
		det, err = sys.DetectCtx(context.Background(), ae.AE)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("AE flagged:", det.Adversarial)
	}
}

// ExampleSystem_CalibrateThreshold builds the paper's classifier-free
// unseen-attack detector: calibrated on benign audio only.
func ExampleSystem_CalibrateThreshold() {
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithoutTraining())
	if err != nil {
		log.Fatal(err)
	}
	var benign []*mvpears.Clip
	for i := int64(0); i < 20; i++ {
		clip, err := sys.GenerateSpeech("the house is warm today", i)
		if err != nil {
			log.Fatal(err)
		}
		benign = append(benign, clip)
	}
	td, err := sys.CalibrateThreshold(mvpears.AT, benign, 0.05)
	if err != nil {
		log.Fatal(err)
	}
	flagged, score, err := td.Detect(benign[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("score %.2f flagged %v (threshold %.2f)\n", score, flagged, td.Threshold())
}

// ExampleSystem_TrainProactive arms the detector against hypothetical
// transferable AEs before such attacks exist (the paper's §V-H).
func ExampleSystem_TrainProactive() {
	sys, err := mvpears.Build(mvpears.WithQuickScale())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.TrainProactive(); err != nil {
		log.Fatal(err)
	}
	// A future AE that fools the target and DS1 (but not GCS/AT) would
	// produce a score vector like this — and is already detected.
	pred, err := sys.Classifier().Predict([]float64{0.96, 0.45, 0.41})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hypothetical transferable AE flagged:", pred == 1)
}

// ExampleOpen reloads a previously saved system in milliseconds.
func ExampleOpen() {
	sys, err := mvpears.Build(mvpears.WithQuickScale())
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.SaveFile("models/system.gob"); err != nil {
		log.Fatal(err)
	}
	reloaded, err := mvpears.Open("models/system.gob")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(reloaded.AuxiliaryNames())
}
