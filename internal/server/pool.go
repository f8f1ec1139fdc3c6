package server

import (
	"context"
	"errors"
	"sync"
)

// Admission-control errors, mapped by the handlers to HTTP statuses.
var (
	// ErrQueueFull is returned when the fixed-depth admission queue is
	// saturated — the server is overloaded and the caller should retry
	// later (HTTP 429).
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrPoolClosed is returned once draining has begun (HTTP 503).
	ErrPoolClosed = errors.New("server: pool is draining")
)

// workerPool bounds detection work with two counting semaphores. It is the
// server's backpressure mechanism: at most `workers` detections run
// concurrently, at most `depth` more wait for a turn, and everything beyond
// that is rejected immediately with ErrQueueFull instead of accumulating
// goroutines or memory. Work runs on the goroutine that submits it.
type workerPool struct {
	// admitted holds one token per call inside Do (workers+depth), taken
	// without blocking; running holds one per call inside fn (workers),
	// taken in arrival order.
	admitted chan struct{}
	running  chan struct{}
	wg       sync.WaitGroup // admitted calls

	mu     sync.Mutex
	closed bool
}

// newWorkerPool bounds the pool at `workers` running and `depth` waiting.
func newWorkerPool(workers, depth int) *workerPool {
	workers, depth = max(workers, 1), max(depth, 0)
	return &workerPool{
		admitted: make(chan struct{}, workers+depth),
		running:  make(chan struct{}, workers),
	}
}

// Do runs fn on the calling goroutine once a worker slot is free. Admission
// is non-blocking: a full queue returns ErrQueueFull at once. When Do
// returns nil, fn has completed. When it returns ctx.Err(), fn never ran:
// a call whose ctx ends while it waits for a slot is skipped, not run, so
// abandoned work does not eat worker time. A panic in fn propagates to the
// caller with both slots released.
func (p *workerPool) Do(ctx context.Context, fn func(ctx context.Context)) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	select {
	case p.admitted <- struct{}{}:
		p.wg.Add(1)
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		return ErrQueueFull
	}
	defer func() { <-p.admitted; p.wg.Done() }()
	select {
	case p.running <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-p.running }()
	if err := ctx.Err(); err != nil {
		return err
	}
	fn(ctx)
	return nil
}

// QueueLen reports how many admitted calls are waiting (not running).
func (p *workerPool) QueueLen() int { return max(len(p.admitted)-len(p.running), 0) }

// Close drains the pool: no new calls are admitted, and Close returns once
// every admitted call — waiting or running — has finished. Safe to call
// more than once.
func (p *workerPool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
}
