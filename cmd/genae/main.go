// Command genae crafts audio adversarial examples against the built-in
// target engine (DS0), the way the paper's AE dataset was produced.
//
// Usage:
//
//	genae -attack whitebox -command "open the front door" -out ae.wav
//	genae -attack blackbox -command "open door" -out ae.wav
//	genae -attack nontargeted -out ae.wav
//
// Without -host, a benign host utterance is synthesized. The tool prints
// what DS0 and the auxiliary engines hear for the crafted AE, which
// demonstrates (non-)transferability directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"mvpears"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "genae:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("genae", flag.ContinueOnError)
	attackKind := fs.String("attack", "whitebox", "whitebox, blackbox, nontargeted, or adaptive-td")
	command := fs.String("command", "open the front door", "command to embed (targeted attacks)")
	host := fs.String("host", "", "host WAV (synthesized when empty)")
	hostText := fs.String("host-text", "the weather is good today and the music is loud", "text for the synthesized host")
	out := fs.String("out", "ae.wav", "output WAV path")
	seed := fs.Int64("seed", 1, "attack/synthesis seed")
	quick := fs.Bool("quick", false, "quick (less accurate) engine training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := []mvpears.Option{mvpears.WithoutTraining()}
	if *quick {
		opts = append(opts, mvpears.WithQuickScale())
	}
	fmt.Fprintln(os.Stderr, "training engines...")
	sys, err := mvpears.Build(opts...)
	if err != nil {
		return err
	}
	var hostClip *mvpears.Clip
	if *host != "" {
		hostClip, err = sys.LoadClip(*host)
		if err != nil {
			return err
		}
	} else {
		hostClip, err = sys.GenerateSpeech(*hostText, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("synthesized host: %q\n", *hostText)
	}

	var ae *mvpears.Clip
	switch *attackKind {
	case "whitebox":
		res, err := sys.CraftWhiteBoxAE(hostClip, *command)
		if err != nil {
			return err
		}
		report(res)
		ae = res.AE
	case "blackbox":
		res, err := sys.CraftBlackBoxAE(hostClip, *command, *seed)
		if err != nil {
			return err
		}
		report(res)
		ae = res.AE
	case "nontargeted":
		clip, ok, err := sys.CraftNonTargetedAE(hostClip, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("non-targeted attack success (WER > 80%%): %v\n", ok)
		ae = clip
	case "adaptive-td":
		res, err := sys.CraftAdaptiveTDAE(hostClip, *command, 0.5)
		if err != nil {
			return err
		}
		report(res)
		fmt.Println("(command embedded in the second half only: evades split-and-splice detection)")
		ae = res.AE
	default:
		return fmt.Errorf("unknown attack %q", *attackKind)
	}

	if err := mvpears.SaveWAV(*out, ae); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	all, err := sys.TranscribeAll(ae)
	if err != nil {
		return err
	}
	fmt.Println("what each engine hears:")
	for _, name := range append([]string{"DS0"}, sys.AuxiliaryNames()...) {
		fmt.Printf("  %-4s %q\n", name, all[name])
	}
	return nil
}

func report(res *mvpears.AEResult) {
	fmt.Printf("attack success: %v (after %d iterations)\n", res.Success, res.Iterations)
	fmt.Printf("host text (per DS0): %q\n", res.HostText)
	fmt.Printf("embedded command:    %q\n", res.TargetText)
	fmt.Printf("DS0 now hears:       %q\n", res.FinalText)
	fmt.Printf("waveform similarity to host: %.3f (SNR %.1f dB)\n", res.Similarity, res.SNRdB)
}
