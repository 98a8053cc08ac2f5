package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"choir/internal/mac"
	"choir/internal/obs"
	"choir/internal/sim"
)

// waitNoLeaks waits for the goroutine count to fall back to baseline
// (the gateway resilience tests' leak-check helper).
func waitNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// busyCity is a run big enough that cancellation always lands mid-drain.
func busyCity(driver Driver) Config {
	return Config{
		Scheme:         mac.SchemeChoir,
		Driver:         driver,
		Nodes:          5000,
		Gateways:       4,
		Slots:          100_000_000,
		ArrivalPerSlot: 0.5,
		PayloadLen:     12,
		Receiver:       mac.ModelReceiver{Success: sim.AnalyticChoirTable(30, 0.95, 14), MaxConcurrent: 30},
		Seed:           17,
	}
}

// TestRunCancelMidDrain pins the cancellation contract for both drivers:
// a canceled run returns the context's error with nil metrics, leaves no
// goroutines behind, and records NOTHING in obs — terminal
// accounting happens exactly once, at successful completion, so a retry
// after cancellation can never double-count.
func TestRunCancelMidDrain(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	for _, driver := range []Driver{DriverEvent, DriverSlot} {
		baseline := runtime.NumGoroutine()
		runs0, events0, delivered0 := cRuns.Value(), cEvents.Value(), cDelivered.Value()

		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			m, err := Run(ctx, busyCity(driver))
			if m != nil {
				err = errors.New("canceled run returned partial metrics")
			}
			done <- err
		}()
		// Let the drain get going, then cut it mid-flight.
		time.Sleep(20 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: canceled run returned %v, want context.Canceled", driver, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: canceled run did not return", driver)
		}
		waitNoLeaks(t, baseline)
		if cRuns.Value() != runs0 || cEvents.Value() != events0 || cDelivered.Value() != delivered0 {
			t.Fatalf("%v: canceled run leaked accounting: runs %d->%d events %d->%d delivered %d->%d",
				driver, runs0, cRuns.Value(), events0, cEvents.Value(), delivered0, cDelivered.Value())
		}
	}

	// A completed run records its totals exactly once.
	runs0, events0 := cRuns.Value(), cEvents.Value()
	cfg := busyCity(DriverEvent)
	cfg.Nodes, cfg.Slots = 64, 200
	m, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cRuns.Value() != runs0+1 {
		t.Fatalf("completed run recorded %d times", cRuns.Value()-runs0)
	}
	if got := cEvents.Value() - events0; got != m.Events {
		t.Fatalf("events counter delta %d != metrics %d", got, m.Events)
	}
}

// TestRunAlreadyCanceled pins the fast path: a context canceled before
// the first slot returns immediately with no accounting.
func TestRunAlreadyCanceled(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	runs0 := cRuns.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, driver := range []Driver{DriverEvent, DriverSlot} {
		if _, err := Run(ctx, busyCity(driver)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v", driver, err)
		}
	}
	if cRuns.Value() != runs0 {
		t.Fatalf("pre-canceled runs recorded accounting")
	}
}
