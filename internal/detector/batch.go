package detector

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"mvpears/internal/audio"
	"mvpears/internal/dataset"
)

// batchWorkers picks the worker-pool size for batch operations: one worker
// in Sequential mode, otherwise GOMAXPROCS capped at the job count.
func (d *Detector) batchWorkers(n int) int {
	if d.Sequential {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runBatch executes fn(i, engineParallel) for every i in [0,n) on one
// bounded worker pool sized once for the whole call chain. engineParallel
// tells the job whether its per-clip engine fan-out may still run
// concurrently: once the batch pool itself has more than one worker the
// CPUs are already saturated, so jobs run their engines sequentially
// instead of multiplying pool-size × engine-count goroutines.
//
// The pool fails fast: once any job errors or the context is cancelled,
// no new jobs are dispatched. The lowest-indexed error is returned so
// failures are deterministic regardless of scheduling; a cancelled batch
// returns the context's error.
func (d *Detector) runBatch(ctx context.Context, n int, fn func(i int, engineParallel bool) error) error {
	if n == 0 {
		return nil
	}
	workers := d.batchWorkers(n)
	if workers == 1 {
		// The batch itself is serial (Sequential mode, a single clip, or a
		// single CPU), so per-clip engine parallelism keeps its usual
		// setting.
		engineParallel := !d.Sequential
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i, engineParallel); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   int64 = -1
		failed atomic.Bool
		errs   = make([]error, n)
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				if err := fn(i, false); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// BatchDetect classifies every clip using a bounded worker pool
// (GOMAXPROCS workers; sequential when d.Sequential is set), each clip
// exactly as Detect would, cascade included. Decisions are returned in
// input order; on error the first failure by index is returned and the
// partial results are discarded. A cancelled context stops dispatching
// clips and the batch fails with the context's error.
func (d *Detector) BatchDetect(ctx context.Context, clips []*audio.Clip) ([]Decision, error) {
	decs := make([]Decision, len(clips))
	err := d.runBatch(ctx, len(clips), func(i int, engineParallel bool) error {
		dec, err := d.detect(ctx, clips[i], engineParallel)
		if err != nil {
			return fmt.Errorf("detector: clip %d: %w", i, err)
		}
		decs[i] = dec
		return nil
	})
	if err != nil {
		return nil, err
	}
	return decs, nil
}

// Features extracts the similarity feature vector of every sample on a
// bounded worker pool (set Sequential for one-at-a-time extraction),
// returning the matrix and the {0,1} labels in input order. Training and
// calibration always use the full ensemble, never the cascade.
func (d *Detector) Features(samples []dataset.Sample) ([][]float64, []int, error) {
	ctx := context.TODO()
	X := make([][]float64, len(samples))
	y := make([]int, len(samples))
	err := d.runBatch(ctx, len(samples), func(i int, engineParallel bool) error {
		v, err := d.featureVector(ctx, samples[i].Clip, engineParallel)
		if err != nil {
			return fmt.Errorf("detector: sample %d (%s): %w", i, samples[i].Kind, err)
		}
		X[i] = v
		if samples[i].IsAE() {
			y[i] = 1
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return X, y, nil
}
