// Package exec is the shared parallel trial-execution engine: a bounded
// worker pool with deterministic fan-out and a seed-derivation scheme that
// gives every Monte-Carlo trial its own independent random stream.
//
// The engine's contract is that the worker count never changes results:
// every trial derives its scenario's randomness from its logical
// coordinates (DeriveSeed), writes into its own result slot (Pool.ForEach),
// and decodes on a borrowed backend whose output depends on the samples
// alone (backend.Pool), so a sweep run with Workers=8 is byte-identical to
// the same sweep run with Workers=1.
// Callers reduce the indexed results in trial order, which keeps even
// floating-point accumulation order fixed.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"choir/internal/ctxutil"
	"choir/internal/obs"
)

// Pool is a bounded worker pool for fanning trial loops out across CPUs.
// The zero value is not useful; build one with NewPool.
type Pool struct {
	workers int
}

// NewPool returns a pool of the given width. workers <= 0 selects
// GOMAXPROCS, the "use the whole machine" default; workers == 1 runs every
// task inline on the calling goroutine (the serial baseline).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// ForEach runs fn(i) for every i in [0, n) across the pool's workers and
// returns once all calls have finished. Tasks are handed out dynamically,
// so callers must not depend on which worker runs which index: fn should
// write its result into slot i of a preallocated slice and leave shared
// state alone. A panic in any task is re-raised on the calling goroutine
// after the remaining workers drain.
//
// Cancellation is cooperative and preserves the determinism contract: once
// ctx fires no NEW index is handed out, but every task already started runs
// to completion — a slot is either fully written or never touched, never
// half-done. The returned error is ctx.Err() (wrapped) when the fan-out was
// cut short, nil when all n tasks ran. A context that cannot fire (nil,
// Background — see ctxutil) is never polled.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	stopped := func() bool { return false }
	if ctxutil.CanFire(ctx) {
		stopped = func() bool { return ctx.Err() != nil }
	}
	w := p.workers
	if w > n {
		w = n
	}
	if obs.Enabled() {
		// Wrap each task with queue-wait and runtime recording. Queue wait
		// is measured from fan-out start to task pickup — under dynamic
		// handout that is exactly how long the index sat waiting for a free
		// worker. The wrapping happens only when metrics are on, so the
		// disabled path stays a single branch with no closure allocation.
		t0 := time.Now()
		mPoolTasks.Add(int64(n))
		run := fn
		fn = func(i int) {
			start := time.Now()
			mPoolQueueWait.Observe(start.Sub(t0).Nanoseconds())
			run(i)
			d := time.Since(start).Nanoseconds()
			mPoolBusyNS.Add(d)
			mPoolTaskNS.Hist().Observe(d)
		}
		defer func() {
			mPoolCapacityNS.Add(time.Since(t0).Nanoseconds() * int64(w))
		}()
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if stopped() {
				mPoolCanceled.Inc()
				return fmt.Errorf("exec: fan-out canceled at task %d/%d: %w", i, n, ctx.Err())
			}
			fn(i)
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if stopped() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() != nil {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("exec: task %d panicked: %v", i, r))
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
	// "Cut short" means some index was never handed out. A context that
	// fires after the last task was already picked up changed nothing, so
	// the fan-out still reports success.
	if handed := int(next.Load()); handed < n && stopped() {
		mPoolCanceled.Inc()
		return fmt.Errorf("exec: fan-out canceled after %d/%d tasks: %w", handed, n, ctx.Err())
	}
	return nil
}

// Map runs fn over [0, n) and collects the results in index order — the
// submit/collect idiom most trial loops need. On cancellation the partial
// results are discarded and the fan-out error is returned.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if err := p.ForEach(ctx, n, func(i int) { out[i] = fn(i) }); err != nil {
		return nil, err
	}
	return out, nil
}
