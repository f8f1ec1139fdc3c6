// Command mvpears trains an MVP-EARS system and runs it on audio files.
//
// Usage:
//
//	mvpears synth -text "open the front door" -out cmd.wav [-seed 7]
//	mvpears transcribe -in clip.wav [-quick]
//	mvpears detect -in clip.wav [-json] [-explain] [-quick] [-classifier svm] [-model cache.gob]
//	mvpears engines [-quick]                # print the engine inventory
//
// Engines are trained from scratch on startup (the models are small);
// -quick trades accuracy for startup time.
//
// detect exit codes: 0 all clips benign, 2 at least one adversarial,
// 1 on error — so shell pipelines can gate on the verdict. With -json it
// emits the same schema as mvpearsd's /v1/detect (one file) or
// /v1/detect/batch (several files) responses.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"mvpears"
	"mvpears/internal/obs"
	"mvpears/internal/server"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mvpears:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// exitCode folds a plain error into the (code, err) convention.
func exitCode(err error) (int, error) {
	if err != nil {
		return 1, err
	}
	return 0, nil
}

func run(args []string) (int, error) {
	if len(args) < 1 {
		return 1, fmt.Errorf("usage: mvpears <synth|transcribe|detect> [flags]")
	}
	switch args[0] {
	case "synth":
		return exitCode(runSynth(args[1:]))
	case "transcribe":
		return exitCode(runTranscribe(args[1:]))
	case "detect":
		return runDetect(args[1:])
	case "engines":
		return exitCode(runEngines(args[1:]))
	default:
		return 1, fmt.Errorf("unknown subcommand %q (synth, transcribe, detect, engines)", args[0])
	}
}

// buildSystem trains a system, or — when modelPath is set — loads a
// cached one (training and caching it on first use). An artifact that
// exists but does not load is an error, never overwritten.
func buildSystem(quick bool, classifier, modelPath string, train bool) (*mvpears.System, error) {
	if modelPath != "" && train {
		sys, err := mvpears.Open(modelPath)
		if err == nil {
			fmt.Fprintf(os.Stderr, "loaded cached models from %s\n", modelPath)
			return sys, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	opts := []mvpears.Option{mvpears.WithClassifier(classifier)}
	if quick {
		opts = append(opts, mvpears.WithQuickScale())
	}
	if !train {
		opts = append(opts, mvpears.WithoutTraining())
	}
	fmt.Fprintln(os.Stderr, "training engines (use -quick for a faster, less accurate build)...")
	sys, err := mvpears.Build(opts...)
	if err != nil {
		return nil, err
	}
	if modelPath != "" && train {
		if err := sys.SaveFile(modelPath); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "cached models to %s\n", modelPath)
	}
	return sys, nil
}

func runSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ContinueOnError)
	text := fs.String("text", "", "sentence to synthesize")
	out := fs.String("out", "out.wav", "output WAV path")
	seed := fs.Int64("seed", 1, "speaker/variation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *text == "" {
		return fmt.Errorf("synth: -text is required")
	}
	sys, err := mvpears.Build(mvpears.WithQuickScale(), mvpears.WithoutTraining())
	if err != nil {
		return err
	}
	clip, err := sys.GenerateSpeech(*text, *seed)
	if err != nil {
		return err
	}
	if err := mvpears.SaveWAV(*out, clip); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%.2f s at %d Hz)\n", *out, clip.Duration(), clip.SampleRate)
	return nil
}

func runTranscribe(args []string) error {
	fs := flag.NewFlagSet("transcribe", flag.ContinueOnError)
	in := fs.String("in", "", "input WAV path")
	quick := fs.Bool("quick", false, "quick (less accurate) engine training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("transcribe: -in is required")
	}
	sys, err := buildSystem(*quick, "svm", "", false)
	if err != nil {
		return err
	}
	clip, err := sys.LoadClip(*in)
	if err != nil {
		return err
	}
	all, err := sys.TranscribeAll(clip)
	if err != nil {
		return err
	}
	for _, name := range append([]string{"DS0"}, sys.AuxiliaryNames()...) {
		fmt.Printf("%-4s %q\n", name, all[name])
	}
	return nil
}

func runDetect(args []string) (int, error) {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	in := fs.String("in", "", "input WAV path (more files may follow as positional args)")
	quick := fs.Bool("quick", false, "quick (less accurate) engine training")
	classifier := fs.String("classifier", "svm", "svm, knn, forest, or logreg")
	model := fs.String("model", "", "model cache path (train once, reuse)")
	jsonOut := fs.Bool("json", false, "emit the mvpearsd response schema instead of human-readable text")
	explain := fs.Bool("explain", false, "include per-engine phonetic evidence with each verdict")
	if err := fs.Parse(args); err != nil {
		return 1, err
	}
	paths := fs.Args()
	if *in != "" {
		paths = append([]string{*in}, paths...)
	}
	if len(paths) == 0 {
		return 1, fmt.Errorf("detect: -in is required")
	}
	sys, err := buildSystem(*quick, *classifier, *model, true)
	if err != nil {
		return 1, err
	}
	clips := make([]*mvpears.Clip, len(paths))
	for i, p := range paths {
		if clips[i], err = sys.LoadClip(p); err != nil {
			return 1, err
		}
	}
	ctx := context.Background()
	if *explain {
		ctx = obs.WithExplain(ctx)
	}
	dets, err := sys.DetectBatchCtx(ctx, clips)
	if err != nil {
		return 1, err
	}
	if *jsonOut {
		if err := printDetectJSON(sys, paths, dets); err != nil {
			return 1, err
		}
	} else {
		printDetectText(sys, paths, dets)
	}
	for _, det := range dets {
		if det.Adversarial {
			return 2, nil
		}
	}
	return 0, nil
}

func printDetectText(sys *mvpears.System, paths []string, dets []*mvpears.Detection) {
	for i, det := range dets {
		if len(dets) > 1 {
			fmt.Printf("== %s ==\n", paths[i])
		}
		verdict := "BENIGN"
		if det.Adversarial {
			verdict = "ADVERSARIAL"
		}
		fmt.Printf("verdict: %s\n", verdict)
		fmt.Printf("target DS0 heard: %q\n", det.Transcriptions["DS0"])
		for j, name := range sys.AuxiliaryNames() {
			fmt.Printf("aux %-4s heard %q (similarity %.3f)\n", name, det.Transcriptions[name], det.Scores[j])
		}
		if exp := det.Explanation; exp != nil {
			fmt.Printf("similarity method: %s\n", exp.Method)
			fmt.Printf("phonetic %-4s %q\n", exp.Target.Engine, exp.Target.Phonetic)
			for _, aux := range exp.Auxiliaries {
				fmt.Printf("phonetic %-4s %q\n", aux.Engine, aux.Phonetic)
			}
			fmt.Printf("weakest agreement: %s at %.3f\n", exp.MinEngine, exp.MinSimilarity)
		}
		fmt.Printf("timing: recognition %v, similarity %v, classify %v\n",
			det.Timing.Recognition, det.Timing.Similarity, det.Timing.Classify)
	}
}

// printDetectJSON mirrors the daemon's wire format: one file renders the
// /v1/detect response, several render the /v1/detect/batch response.
func printDetectJSON(sys *mvpears.System, paths []string, dets []*mvpears.Detection) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	aux := sys.AuxiliaryNames()
	if len(dets) == 1 {
		dj := server.NewDetectionJSON(dets[0], aux)
		dj.Explanation = server.NewExplanationJSON(dets[0].Explanation)
		return enc.Encode(dj)
	}
	resp := server.BatchResponseJSON{Results: make([]server.FileDetectionJSON, len(dets))}
	for i, det := range dets {
		dj := server.NewDetectionJSON(det, aux)
		dj.Explanation = server.NewExplanationJSON(det.Explanation)
		resp.Results[i] = server.FileDetectionJSON{File: paths[i], DetectionJSON: dj}
	}
	return enc.Encode(resp)
}

func runEngines(args []string) error {
	fs := flag.NewFlagSet("engines", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "quick (less accurate) engine training")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sys, err := buildSystem(*quick, "svm", "", false)
	if err != nil {
		return err
	}
	for _, info := range sys.DescribeEngines() {
		fmt.Printf("%-4s %-58s %-32s %7d params\n", info.ID, info.Architecture, info.FrontEnd, info.Parameters)
	}
	return nil
}
