package exec

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachCtxCompletesWithLiveContext pins that a cancelable context
// that never fires is free: the polled path runs every index exactly once
// and the error is nil.
func TestForEachCtxCompletesWithLiveContext(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var ran [64]atomic.Int32
		err := ForEach(ctx, len(ran), func(i int) {
			ran[i].Add(1)
		})
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("GOMAXPROCS %d: index %d ran %d times", procs, i, n)
			}
		}
	}
}

// TestForEachCtxCancelCutsFanOutShort pins cooperative cancellation: after
// the context fires no new index starts, started tasks still complete
// (slots are all-or-nothing), and the cut-short error wraps ctx.Err().
//
// Only the calling goroutine polls, after each index it takes, so helpers
// may run on until it next does. Every task started after the fifth waits
// for the cancellation and then sleeps a millisecond: the caller's next poll
// then comes long before the helpers could run out the remaining indices, at
// any width and under the race detector.
func TestForEachCtxCancelCutsFanOutShort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		var started atomic.Int32
		fired := make(chan struct{})
		done := make([]atomic.Bool, n)
		err := ForEach(ctx, n, func(i int) {
			if s := started.Add(1); s == 5 {
				cancel()
				close(fired)
			} else if s > 5 {
				<-fired
				time.Sleep(time.Millisecond)
			}
			done[i].Store(true)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("GOMAXPROCS %d: err = %v, want wrapped context.Canceled", procs, err)
		}
		if s := int(started.Load()); s >= n {
			t.Errorf("GOMAXPROCS %d: all %d tasks ran despite cancellation", procs, n)
		}
		// Every started task finished: no half-done slots.
		if s := int(started.Load()); s > 0 {
			finished := 0
			for i := range done {
				if done[i].Load() {
					finished++
				}
			}
			if finished != s {
				t.Errorf("GOMAXPROCS %d: %d tasks started but %d finished", procs, s, finished)
			}
		}
	}
}

// TestMapCtxCanceledReturnsNoResults pins Map's all-or-nothing result
// contract under cancellation. A context that has already fired is polled
// before any helper starts, so nothing runs.
func TestMapCtxCanceledReturnsNoResults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	res, err := Map(ctx, 100, func(i int) int { ran.Add(1); return i })
	if res != nil || !errors.Is(err, context.Canceled) || ran.Load() != 0 {
		t.Fatalf("Map = %v, %v after %d calls; want nil results, a wrapped context.Canceled and no call", res, err, ran.Load())
	}

	// With a live context Map matches the direct computation at any width.
	runtime.GOMAXPROCS(1)
	want, err := Map(context.Background(), 32, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	got, err := Map(context.Background(), 32, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}
