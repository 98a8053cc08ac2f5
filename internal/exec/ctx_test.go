package exec

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestForEachCtxCompletesWithLiveContext pins that a cancelable context
// that never fires is free: the polled path runs every index exactly once
// and the error is nil.
func TestForEachCtxCompletesWithLiveContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, workers := range []int{1, 4} {
		var ran [64]atomic.Int32
		err := NewPool(workers).ForEach(ctx, len(ran), func(i int) {
			ran[i].Add(1)
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, n)
			}
		}
	}
}

// TestForEachCtxCancelCutsFanOutShort pins cooperative cancellation: after
// the context fires no new index starts, started tasks still complete
// (slots are all-or-nothing), and the cut-short error wraps ctx.Err().
func TestForEachCtxCancelCutsFanOutShort(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		const n = 1000
		var started atomic.Int32
		done := make([]atomic.Bool, n)
		err := NewPool(workers).ForEach(ctx, n, func(i int) {
			if started.Add(1) == 5 {
				cancel()
			}
			done[i].Store(true)
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want wrapped context.Canceled", workers, err)
		}
		if s := int(started.Load()); s >= n {
			t.Errorf("workers=%d: all %d tasks ran despite cancellation", workers, n)
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
				t.Errorf("workers=%d: %d tasks started but %d finished", workers, s, finished)
			}
		}
	}
}

// TestMapCtxCanceledReturnsNoResults pins Map's all-or-nothing result
// contract under cancellation.
func TestMapCtxCanceledReturnsNoResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Map(ctx, NewPool(2), 100, func(i int) int { return i })
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("Map = %v, %v; want nil results and a wrapped context.Canceled", res, err)
	}

	// With a live context Map matches the direct computation for any
	// worker count.
	want, err := Map(context.Background(), NewPool(1), 32, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	got, err := Map(context.Background(), NewPool(8), 32, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}
