// Proactive defense: the paper's §V-H idea. Transferable audio AEs — AEs
// that fool the target AND some auxiliaries — do not exist yet, but the
// detector can be trained for them today: a hypothetical transferable AE
// is just a similarity-score vector with benign-looking scores for the
// engines it fools and AE-looking scores for the rest. This example
// trains the comprehensive system and shows it detecting all six
// hypothetical MAE types plus today's real AEs.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"mvpears"
)

func main() {
	fmt.Println("building MVP-EARS (quick scale)...")
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}

	// Switch to the proactively trained comprehensive system: it never
	// sees a transferable AE — it trains on synthesized score vectors for
	// the maximal types (AEs fooling the target plus two of the three
	// auxiliaries).
	fmt.Println("proactively training the comprehensive system on hypothetical transferable AEs...")
	if err := sys.TrainProactive(); err != nil {
		log.Fatal(err)
	}

	// Simulate feature vectors of future transferable AEs. Auxiliary
	// order is DS1, GCS, AT. A fooled engine agrees with the fooled
	// target, so its similarity score looks benign (~0.95); an unfooled
	// engine disagrees (~0.45).
	rng := rand.New(rand.NewSource(99))
	benignLike := func() float64 { return 0.93 + rng.Float64()*0.06 }
	aeLike := func() float64 { return 0.35 + rng.Float64()*0.2 }
	cases := []struct {
		name string
		vec  func() []float64
	}{
		{"Type-1 AE(DS0,DS1)", func() []float64 { return []float64{benignLike(), aeLike(), aeLike()} }},
		{"Type-2 AE(DS0,GCS)", func() []float64 { return []float64{aeLike(), benignLike(), aeLike()} }},
		{"Type-3 AE(DS0,AT)", func() []float64 { return []float64{aeLike(), aeLike(), benignLike()} }},
		{"Type-4 AE(DS0,DS1,GCS)", func() []float64 { return []float64{benignLike(), benignLike(), aeLike()} }},
		{"Type-5 AE(DS0,DS1,AT)", func() []float64 { return []float64{benignLike(), aeLike(), benignLike()} }},
		{"Type-6 AE(DS0,GCS,AT)", func() []float64 { return []float64{aeLike(), benignLike(), benignLike()} }},
		{"benign audio", func() []float64 { return []float64{benignLike(), benignLike(), benignLike()} }},
	}
	const trials = 200
	fmt.Println("\ndetection rates over simulated future-AE score vectors:")
	for _, c := range cases {
		var flagged int
		for i := 0; i < trials; i++ {
			pred, err := sys.Classifier().Predict(c.vec())
			if err != nil {
				log.Fatal(err)
			}
			flagged += pred
		}
		fmt.Printf("  %-24s flagged %3d/%d\n", c.name, flagged, trials)
	}

	// And it still catches today's real (non-transferable) AEs end to
	// end.
	host, err := sys.GenerateSpeech("we will find the answer tomorrow morning", 44)
	if err != nil {
		log.Fatal(err)
	}
	ae, err := sys.CraftWhiteBoxAE(host, "turn off the alarm")
	if err != nil {
		log.Fatal(err)
	}
	if ae.Success {
		det, err := sys.DetectCtx(context.Background(), ae.AE)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nreal white-box AE detected by the comprehensive system: %v\n", det.Adversarial)
	} else {
		fmt.Println("\n(real attack did not converge at quick scale; the score-vector results above stand)")
	}
	fmt.Println("\nthe defense was trained before any transferable AE exists — one step ahead of the attacker.")
}
