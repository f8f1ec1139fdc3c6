package vcache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Group collapses concurrent duplicate work: the first caller for a key
// becomes the flight's leader and runs fn once, on the calling goroutine;
// every concurrent caller for the same key waits for that one result
// instead of repeating the work.
//
// Context correctness, the part naive singleflight implementations get
// wrong, is handled by reference counting:
//
//   - fn runs under a context the flight owns (the leader's values,
//     bounded by Timeout), not under any caller's cancellation — so a
//     waiter (or the leader's own client) hanging up cannot cancel work
//     other callers still want.
//   - Each caller's ctx ending detaches only that caller; the leader
//     detaches the same way but stays on fn until it returns. When the
//     LAST interested caller detaches, the flight's context is cancelled
//     so abandoned work stops eating CPU.
//   - fn's error (or panic, wrapped as *PanicError) is delivered to every
//     caller of the flight exactly once each, and the flight is removed so
//     the next request retries instead of observing a stale failure.
//
// Results are not cached here — pair a Group with a Cache so only misses
// reach the flight path.
type Group[V any] struct {
	// Timeout bounds one flight's work (0 = no deadline). Flights outlive
	// request contexts, so without this an abandoned-then-rejoined flight
	// could run forever.
	Timeout time.Duration

	mu      sync.Mutex
	flights map[string]*flight[V]

	collapsed atomic.Uint64
}

type flight[V any] struct {
	done   chan struct{}
	cancel context.CancelFunc
	// refs counts callers still interested in the flight; guarded by
	// Group.mu.
	refs int
	// val/err are written once by the leader before done closes.
	val V
	err error
}

// PanicError wraps a panic recovered from a flight's fn, so waiters
// receive a failure instead of hanging and the caller that wants panic
// semantics (the HTTP handler's middleware counter) can re-raise Value.
type PanicError struct {
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("vcache: flight panicked: %v", e.Value) }

// Collapsed reports how many calls joined an existing flight instead of
// starting their own work.
func (g *Group[V]) Collapsed() uint64 { return g.collapsed.Load() }

// Do runs fn for key, collapsing concurrent duplicates. It returns fn's
// result, whether this call shared another caller's flight, and the error.
// A caller whose ctx ends before the flight completes gets ctx.Err(); the
// flight itself keeps running for the remaining callers. The leader runs
// fn on the calling goroutine, so Do returns only after fn has.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, shared bool, err error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*flight[V])
	}
	if f, ok := g.flights[key]; ok && f.refs > 0 {
		f.refs++
		g.mu.Unlock()
		g.collapsed.Add(1)
		select {
		case <-f.done:
			return f.val, true, f.err
		case <-ctx.Done():
			g.leave(key, f)
			var zero V
			return zero, true, ctx.Err()
		}
	}
	// No live flight (or only an abandoned one whose work was already
	// cancelled): lead a fresh one, keeping ctx's values (trace, explain
	// flag) but not its cancellation.
	fctx := context.WithoutCancel(ctx)
	var cancel context.CancelFunc
	if g.Timeout > 0 {
		fctx, cancel = context.WithTimeout(fctx, g.Timeout)
	} else {
		fctx, cancel = context.WithCancel(fctx)
	}
	f := &flight[V]{done: make(chan struct{}), cancel: cancel, refs: 1}
	g.flights[key] = f
	g.mu.Unlock()

	stop := context.AfterFunc(ctx, func() { g.leave(key, f) })
	g.run(key, f, fctx, fn)
	if !stop() {
		// The leader's ctx ended first: it left like any waiter.
		var zero V
		return zero, false, ctx.Err()
	}
	return f.val, false, f.err
}

// run is the leader's call of fn: it records the result (a panic as
// *PanicError), retires the flight and releases every waiter.
func (g *Group[V]) run(key string, f *flight[V], fctx context.Context, fn func(ctx context.Context) (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = &PanicError{Value: r}
		}
		g.mu.Lock()
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		g.mu.Unlock()
		f.cancel()
		close(f.done)
	}()
	f.val, f.err = fn(fctx)
}

// leave detaches one caller; the last one out cancels the flight's work.
func (g *Group[V]) leave(key string, f *flight[V]) {
	g.mu.Lock()
	f.refs--
	last := f.refs == 0
	if last && g.flights[key] == f {
		// Remove eagerly so a caller arriving after abandonment starts a
		// fresh flight instead of joining cancelled work.
		delete(g.flights, key)
	}
	g.mu.Unlock()
	if last {
		f.cancel()
	}
}
