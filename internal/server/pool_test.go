package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsJobs(t *testing.T) {
	p := newWorkerPool(2, 2)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Retry on queue-full: this test is about completion, not
			// rejection.
			for {
				err := p.Do(context.Background(), func(context.Context) { ran.Add(1) })
				if err == nil {
					return
				}
				if !errors.Is(err, ErrQueueFull) {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := ran.Load(); got != 8 {
		t.Fatalf("ran %d jobs, want 8", got)
	}
}

func TestPoolQueueFull(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	// Occupy the single worker...
	go p.Do(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started
	// ...and the single queue slot.
	go p.Do(context.Background(), func(context.Context) {})
	waitFor(t, func() bool { return p.QueueLen() == 1 })
	// The next admission must bounce immediately.
	err := p.Do(context.Background(), func(context.Context) {})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("error %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestPoolSkipsAbandonedJobs(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started
	// Queue a job, then cancel it before the worker frees up.
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, func(context.Context) { ran.Store(true) })
	}()
	waitFor(t, func() bool { return p.QueueLen() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	close(block)
	p.Close() // drains: the abandoned job must be skipped, not run
	if ran.Load() {
		t.Fatal("cancelled queued job ran anyway")
	}
}

// TestPoolAbandonedWaiterFreesItsSlot: a queued call whose ctx ends gives
// its admission slot back at once, so the next call is admitted instead of
// bouncing with ErrQueueFull while the worker is still busy.
func TestPoolAbandonedWaiterFreesItsSlot(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(block) })
	defer unblock() // before Close, on a failure too
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() { abandoned <- p.Do(ctx, func(context.Context) {}) }()
	waitFor(t, func() bool { return p.QueueLen() == 1 })
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned call: %v, want context.Canceled", err)
	}
	// The worker is still busy: the next call must be admitted and wait
	// (here until its own deadline), not bounce.
	wctx, wcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer wcancel()
	if err := p.Do(wctx, func(context.Context) {}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call after an abandoned one: %v, want admitted (context.DeadlineExceeded)", err)
	}
	unblock()
	var ran atomic.Bool
	if err := p.Do(context.Background(), func(context.Context) { ran.Store(true) }); err != nil || !ran.Load() {
		t.Fatalf("call after the worker freed up: %v, ran %v", err, ran.Load())
	}
}

func TestPoolCloseDrainsQueuedJobs(t *testing.T) {
	// Queue depth exactly matches the queued jobs below, so the polling
	// Do calls later in the test bounce (ErrQueueFull/ErrPoolClosed)
	// instead of blocking in a free slot.
	p := newWorkerPool(1, 3)
	block := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), func(context.Context) {
		close(started)
		<-block
	})
	<-started
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Do(context.Background(), func(context.Context) { ran.Add(1) }); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool { return p.QueueLen() == 3 })
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// New work is refused as soon as draining begins.
	waitFor(t, func() bool {
		return errors.Is(p.Do(context.Background(), func(context.Context) {}), ErrPoolClosed)
	})
	close(block)
	<-closed
	wg.Wait()
	if got := ran.Load(); got != 3 {
		t.Fatalf("drained %d queued jobs, want 3", got)
	}
	// Close is idempotent.
	p.Close()
}

func TestPoolSurvivesPanickingJob(t *testing.T) {
	p := newWorkerPool(1, 1)
	defer p.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic was not re-raised on the submitting goroutine")
			}
		}()
		p.Do(context.Background(), func(context.Context) { panic("job bug") })
	}()
	// The worker must have survived the panic.
	var ran atomic.Bool
	if err := p.Do(context.Background(), func(context.Context) { ran.Store(true) }); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("worker died after a panicking job")
	}
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
