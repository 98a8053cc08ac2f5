package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"choir/internal/mac"
	"choir/internal/obs"
	"choir/internal/sim"
)

// cutCtx is a context that never fires by itself: its Err reports
// context.Canceled from the first poll cut accepts onward, so a test can
// cut a Run it calls synchronously at a chosen point of the drain, with no
// goroutine and no sleep. cut sees the poll's number, counted from 1, and
// is not called again once it has accepted one.
type cutCtx struct {
	context.Context
	cut   func(poll int) bool
	polls int
	cutAt int // the accepted poll, 0 before it
}

func newCutCtx(cut func(poll int) bool) *cutCtx {
	return &cutCtx{Context: context.Background(), cut: cut}
}

func (c *cutCtx) Err() error {
	if c.cutAt == 0 {
		if c.polls++; !c.cut(c.polls) {
			return nil
		}
		c.cutAt = c.polls
	}
	return context.Canceled
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
	// The event driver polls every active slot and the reference driver
	// every ctxCheckInterval slots; both stream every liveFlushInterval of
	// them, so each cut lands after a flush and has something to retract.
	for driver, cutAt := range map[Driver]int{DriverEvent: 300, DriverSlot: 3} {
		baseline := runtime.NumGoroutine()
		runs0, events0, delivered0 := cRuns.Value(), cEvents.Value(), cDelivered.Value()
		var streamed int64
		ctx := newCutCtx(func(poll int) bool {
			streamed = cEvents.Value() - events0
			return poll == cutAt
		})
		m, err := Run(ctx, busyCity(driver))
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("%v: canceled run returned (%v, %v), want nil metrics and context.Canceled", driver, m, err)
		}
		if ctx.cutAt != cutAt || ctx.polls != cutAt {
			t.Fatalf("%v: cut at poll %d of %d, want the run to stop at poll %d", driver, ctx.cutAt, ctx.polls, cutAt)
		}
		if streamed == 0 {
			t.Fatalf("%v: nothing streamed before the cut: it did not land mid-drain", driver)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%v: %d goroutines after the run, %d before", driver, n, baseline)
		}
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
