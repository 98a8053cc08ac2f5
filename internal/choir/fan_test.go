package choir

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// fanProcs is the GOMAXPROCS the fan-out tests run at, whatever -cpu says,
// so every fan-out has helpers.
const fanProcs = 4

// waitGoroutines fails t unless the goroutine count falls back to baseline
// within 5 s: a helper that returned has still to exit.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// TestFanOutPanicReachesCaller injects a panic into a window a helper lane
// runs, in each of the four fanned-out loops: the panic value must reach the
// caller of Decode, no helper may outlive the decode, and the same decoder
// must then decode like a fresh one.
func TestFanOutPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fanProcs))
	spec := defaultSpec(2, 3)
	sig := synthesize(t, spec)
	n := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)
	want, err := MustNew(cfg).Decode(context.Background(), sig, n)
	if err != nil {
		t.Fatal(err)
	}
	d := MustNew(cfg)
	for _, task := range []windowTask{refineTask, subtractTask, peaksTask, symbolsTask} {
		t.Run(fmt.Sprint(task), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			remove := SetWindowHook(PanicOnHelper(task))
			rec := func() (rec any) {
				defer func() { rec = recover() }()
				d.Decode(context.Background(), sig, n)
				return nil
			}()
			remove()
			if s, _ := rec.(string); len(s) < 15 || s[:15] != "injected panic " {
				t.Fatalf("Decode recovered %v, want the injected panic", rec)
			}
			waitGoroutines(t, baseline)
			got, err := d.Decode(context.Background(), sig, n)
			if err != nil {
				t.Fatalf("decoder unusable after a panicking decode: %v", err)
			}
			assertSameResult(t, got, want)
		})
	}
}

// firingCtx is a context whose Done channel closes, with err, when fire is
// first called; fire is safe from any goroutine, so a window hook can land
// the cancellation while a fan-out is in flight.
type firingCtx struct {
	context.Context
	once sync.Once
	done chan struct{}
	err  error
}

func newFiringCtx(err error) *firingCtx {
	return &firingCtx{Context: context.Background(), done: make(chan struct{}), err: err}
}

func (c *firingCtx) fire()                 { c.once.Do(func() { close(c.done) }) }
func (c *firingCtx) Done() <-chan struct{} { return c.done }

func (c *firingCtx) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// TestCancelMidFanOut fires the decode's context from inside window 1 of
// each fanned-out loop, as a cancellation and as a deadline: the decode must
// return the typed error and no result, leave no goroutine behind, and leave
// the decoder poolable.
func TestCancelMidFanOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fanProcs))
	spec := defaultSpec(2, 3)
	sig := synthesize(t, spec)
	n := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)
	want, err := MustNew(cfg).Decode(context.Background(), sig, n)
	if err != nil {
		t.Fatal(err)
	}
	d := MustNew(cfg)
	for _, task := range []windowTask{refineTask, subtractTask, peaksTask, symbolsTask} {
		for _, tc := range []struct {
			cause, typed error
		}{
			{context.Canceled, ErrCanceled},
			{context.DeadlineExceeded, ErrDeadline},
		} {
			t.Run(fmt.Sprintf("%d/%v", task, tc.cause), func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				ctx := newFiringCtx(tc.cause)
				remove := SetWindowHook(func(tk windowTask, i int, _ bool) {
					if tk == task && i == 1 {
						ctx.fire()
					}
				})
				res, err := d.Decode(ctx, sig, n)
				remove()
				if ctx.Err() == nil {
					t.Fatal("the hook never fired: the loop ran fewer than two windows")
				}
				if res != nil || !errors.Is(err, tc.typed) || !errors.Is(err, tc.cause) {
					t.Fatalf("Decode = %v, %v; want no result and %v wrapping %v", res, err, tc.typed, tc.cause)
				}
				waitGoroutines(t, baseline)
				got, err := d.Decode(context.Background(), sig, n)
				if err != nil {
					t.Fatalf("decoder unusable after a canceled fan-out: %v", err)
				}
				assertSameResult(t, got, want)
			})
		}
	}
}

// TestFanOutSteadyStateZeroAllocs is TestDecodeSteadyStateZeroAllocs with
// helper lanes. testing.AllocsPerRun runs at GOMAXPROCS 1, where a decode
// has no helpers, so this counts the heap allocations of warmed-up decodes
// at fanProcs itself: once warm, a run of decodes must allocate nothing.
//
// Two things warm up besides the owner's buffers. A lane's buffers grow to
// the largest window it has run, and which windows a lane runs varies from
// decode to decode, so lanes reach their high-water marks over a few decodes
// rather than one. And a go statement reuses the descriptor of a goroutine
// that has exited, allocating one only when the runtime has none to hand: a
// helper started on one P and exiting on another leaves its descriptor on
// the second P's free list until 64 have gathered there. A process that has
// run a while holds enough, so the test first gives the runtime a few
// hundred. It then decodes runs of 20 until one allocates nothing, and fails
// if none of the first ten does — as it would if a fan-out allocated.
func TestFanOutSteadyStateZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fanProcs))
	spec := defaultSpec(2, 9)
	spec.gainsDBm = []float64{20, 15}
	sig := synthesize(t, spec)
	d := MustNew(DefaultConfig(spec.params))
	res := &Result{}
	decode := func() {
		if _, err := d.DecodeInto(res, sig, len(spec.payloads[0])); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	release := make(chan struct{})
	for range 128 * fanProcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
	const runs, rounds = 20, 10
	var before, after runtime.MemStats
	for round := 1; ; round++ {
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		mallocs := after.Mallocs - before.Mallocs
		if mallocs == 0 {
			t.Logf("run %d of %d decodes allocated nothing", round, runs)
			return
		}
		if round == rounds {
			t.Fatalf("run %d of %d decodes with helper lanes still allocated %d times, want 0", round, runs, mallocs)
		}
	}
}
