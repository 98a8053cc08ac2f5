package gateway

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"choir/internal/choir"
	"choir/internal/obs"
)

// TestShutdownDuringBackoffNoLeak is the regression pin for the backoff
// timer audit: a worker parked in a retry backoff holds a live timer, and
// shutdown must cut through it via the gateway context rather than wait it
// out. With an hour-long BackoffBase, a hard drain has to return in
// seconds, the parked frame must still get its one terminal outcome
// (failed, canceled), and no worker goroutine may outlive the drain.
func TestShutdownDuringBackoffNoLeak(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	baseline := runtime.NumGoroutine()
	retries0 := mRetries.Value()

	// The library default is no backoff sleep at all, so the test has to
	// ask for one.
	if d := (Config{}).withDefaults().BackoffBase; d != 0 {
		t.Fatalf("default BackoffBase = %v, want 0 (no backoff sleeps)", d)
	}
	g, err := New(Config{
		Queue: 4, Workers: 1, Seed: 7,
		MaxAttempts: 3,
		BackoffBase: time.Hour, // any retry parks the worker effectively forever
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)

	// A frame too short to hold even one preamble symbol fails its first
	// attempt immediately and sends the worker into the backoff sleep.
	h, sig, _ := synthFrame(1)
	if _, err := g.Submit(nil, "parked", h, sig[:8]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mRetries.Value() == retries0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if mRetries.Value() == retries0 {
		t.Fatal("first attempt never failed into a retry backoff")
	}

	// Hard stop: the pre-canceled drain context forces immediate shutdown,
	// which must cancel the in-flight backoff timer rather than sleep it out.
	start := time.Now()
	_ = g.Drain(canceledCtx())
	if waited := time.Since(start); waited > 10*time.Second {
		t.Errorf("hard drain took %v with a worker parked in backoff", waited)
	}
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("%d outcomes for 1 accepted frame", len(outs))
	}
	if outs[0].Kind != OutcomeFailed || !errors.Is(outs[0].Err, choir.ErrCanceled) {
		t.Errorf("parked frame outcome = %v / %v, want failed+canceled", outs[0].Kind, outs[0].Err)
	}
	waitNoLeaks(t, baseline)
}
