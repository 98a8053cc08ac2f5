// Package exec is the repository's one fan-out primitive and its
// seed-derivation scheme: Fan runs the indices of a loop across the calling
// goroutine and helper goroutines, min(GOMAXPROCS, n) participants in all,
// and DeriveSeed gives every Monte-Carlo trial its own independent random
// stream.
//
// The contract is that the width never changes results: every trial derives
// its scenario's randomness from its logical coordinates (DeriveSeed), writes
// into its own result slot, and decodes on a backend whose output depends on
// the samples alone (backend.Pool), so a sweep run at GOMAXPROCS=8 is
// byte-identical to the same sweep run at GOMAXPROCS=1. Callers reduce the
// indexed results in trial order, which keeps even floating-point
// accumulation order fixed. The decoder's window loops (internal/choir) and
// the trial sweeps (ForEach, Map) run on the same Fan.
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

// A Job is the body of a fan-out.
type Job interface {
	// Start tells the job, on the calling goroutine and before any index
	// runs, that the fan-out has w participants: the caller is participant
	// 0 and its helpers are 1 .. w−1.
	Start(w int)
	// Run runs index i on participant p. A participant runs one index at a
	// time, so state owned by a participant needs no lock.
	Run(p, i int)
	// Stop is polled on the calling goroutine alone (contexts need not be
	// safe for concurrent polls): once before the fan-out starts and after
	// the caller takes each index. True hands out no more indices.
	Stop() bool
}

// Fan runs one fan-out at a time. The rules it keeps:
//
//   - Indices are handed out dynamically, so a job must not depend on which
//     participant runs which index: index i writes only its own slot.
//   - The caller works alongside min(GOMAXPROCS, n) − 1 helpers; at
//     GOMAXPROCS 1 the loop runs on the caller alone, the same code with one
//     participant.
//   - Only the caller polls Stop; helpers read the stop flag it sets. An
//     index once started runs to completion, so a slot is fully written or
//     never touched.
//   - Helpers start per fan-out and exit when the indices run out, so no
//     goroutine outlives its fan-out.
//   - A panic in any index stops the handout; once every participant has
//     returned, the first panic value is raised again on the caller.
//   - A warm fan-out allocates nothing: its state lives in the Fan, and a
//     helper is an argument-free go statement that receives its Fan over
//     starts (a go statement with arguments allocates its closure).
//
// The zero value is ready to use. A Fan must not be copied once used.
type Fan struct {
	job   Job
	n     int
	next  atomic.Int64 // the next index to hand out
	lane  atomic.Int32 // the last participant number a helper took
	stop  atomic.Bool  // set on cancellation or panic: hand out no more indices
	wg    sync.WaitGroup
	mu    sync.Mutex
	fault any // the first panic value an index raised, guarded by mu
}

// starts hands each helper goroutine the Fan it joins; a helper may take
// another Fan's send than the one after its own go statement, and still
// every send has a helper. The buffer lets the caller go on to its own
// indices instead of waiting until a new helper is scheduled. 64 holds every
// send in flight unless more than 64 helpers are starting at once, and then
// a caller waits for one already started.
var starts = make(chan *Fan, 64)

// Run runs job for every index in [0, n) across the calling goroutine and
// its helpers, returns once all of them have finished, and reports whether
// job.Stop cut the fan-out short — some index then never ran, and which did
// is unspecified.
func (f *Fan) Run(job Job, n int) (stopped bool) {
	if n <= 0 {
		return false
	}
	if job.Stop() {
		return true
	}
	w := min(runtime.GOMAXPROCS(0), n)
	job.Start(w)
	f.job, f.n = job, n
	f.next.Store(0)
	f.lane.Store(0)
	f.stop.Store(false)
	f.wg.Add(w - 1)
	for range w - 1 {
		go helper()
		starts <- f
	}
	stopped = f.work(0)
	f.wg.Wait()
	f.job = nil
	if fault := f.fault; fault != nil {
		f.fault = nil
		panic(fault)
	}
	return stopped
}

// helper is one helper of a fan-out: it takes the next participant number
// of the Fan it receives and works until the indices run out.
func helper() {
	f := <-starts
	defer f.wg.Done()
	f.work(int(f.lane.Add(1)))
}

// work runs indices on participant p until none is left, the stop flag is
// set or an index panics; a panic is recorded for Run to raise and stops the
// handout. The caller (p == 0) polls job.Stop after each index it takes.
func (f *Fan) work(p int) (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			f.stop.Store(true)
			f.mu.Lock()
			if f.fault == nil {
				f.fault = r
			}
			f.mu.Unlock()
		}
	}()
	for !f.stop.Load() {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return false
		}
		if p == 0 && f.job.Stop() {
			f.stop.Store(true)
			return true
		}
		f.job.Run(p, i)
	}
	return false
}

// funcJob is ForEach's Job: fn on every index, polling ctx when it can fire.
type funcJob struct {
	ctx context.Context // nil when it cannot fire
	fn  func(i int)
	w   int
}

func (j *funcJob) Start(w int)  { j.w = w }
func (j *funcJob) Run(_, i int) { j.fn(i) }
func (j *funcJob) Stop() bool   { return j.ctx != nil && j.ctx.Err() != nil }

// ForEach runs fn(i) for every i in [0, n) on a Fan and returns once all
// calls have finished. fn should write its result into slot i of a
// preallocated slice and leave shared state alone. A panic in any call is
// raised again on the calling goroutine after the helpers drain.
//
// Cancellation follows Fan's rules: the calling goroutine polls ctx before
// the fan-out and after each index it takes, and once ctx fires no new
// index is handed out, but every call already started runs to completion.
// The returned error wraps ctx.Err() when the fan-out was cut short, and is
// nil when all n calls ran. A context that cannot fire (nil, Background —
// see ctxutil) is never polled.
func ForEach(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return nil
	}
	j := &funcJob{fn: fn}
	if ctxutil.CanFire(ctx) {
		j.ctx = ctx
	}
	if obs.Enabled() {
		// Wrap each call with queue-wait and runtime recording. Queue wait
		// is measured from fan-out start to pickup — under dynamic handout
		// that is exactly how long the index sat waiting for a free
		// participant. The wrapping happens only when metrics are on, so the
		// disabled path stays a single branch.
		t0 := time.Now()
		mPoolTasks.Add(int64(n))
		j.fn = func(i int) {
			start := time.Now()
			mPoolQueueWait.Observe(start.Sub(t0).Nanoseconds())
			fn(i)
			d := time.Since(start).Nanoseconds()
			mPoolBusyNS.Add(d)
			mPoolTaskNS.Hist().Observe(d)
		}
		defer func() {
			mPoolCapacityNS.Add(time.Since(t0).Nanoseconds() * int64(j.w))
		}()
	}
	if new(Fan).Run(j, n) {
		mPoolCanceled.Inc()
		return fmt.Errorf("exec: fan-out of %d tasks canceled: %w", n, ctx.Err())
	}
	return nil
}

// Map runs fn over [0, n) and collects the results in index order — the
// submit/collect idiom most trial loops need. On cancellation the partial
// results are discarded and the fan-out error is returned.
func Map[T any](ctx context.Context, n int, fn func(i int) T) ([]T, error) {
	out := make([]T, n)
	if err := ForEach(ctx, n, func(i int) { out[i] = fn(i) }); err != nil {
		return nil, err
	}
	return out, nil
}
