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

// waitGoroutines fails t unless the goroutine count falls back to baseline
// within 5 s: a Fan helper whose band returned, or a timer's goroutine, has
// still to exit.
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
// goroutines behind once the event driver's helpers have exited, and
// records NOTHING in obs — terminal
// accounting happens exactly once, at successful completion, so a retry
// after cancellation can never double-count.
func TestRunCancelMidDrain(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	// Both drivers poll at every active slot and stream every
	// liveFlushInterval of them, so a cut at the 300th poll lands after a
	// flush and has something to retract.
	const cutAt = 300
	for _, driver := range []Driver{DriverEvent, DriverSlot} {
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
		waitGoroutines(t, baseline)
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

// TestCallerWatchesDoneAfterItsBand pins the caller's watch: once its own
// band is done (here it takes an index past the bands, so it has none) it
// waits for the helpers' bands on ctx's Done channel, so a cancel that lands
// then still stops them, and the run records ctx's error.
func TestCallerWatchesDoneAfterItsBand(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &bandJob{ctx: ctx, c: newCore(busyCity(DriverEvent)), wake: make(chan struct{}, 1)}
	j.Start(2)
	helper := make(chan struct{})
	go func() {
		defer close(helper)
		j.Run(1, 1)
	}()
	time.AfterFunc(20*time.Millisecond, cancel)
	j.Run(0, len(j.bands))
	<-helper
	if !errors.Is(j.cause, context.Canceled) {
		t.Fatalf("the caller recorded %v, want context.Canceled", j.cause)
	}
	if slots := j.bands[1].m.ActiveSlots; slots == 0 || slots >= int64(j.c.slots) {
		t.Fatalf("the helper's band ran %d active slots: the cancel did not land mid-drain", slots)
	}
}

// TestRunCancelNetsZero cancels a run from outside at a wall-clock moment,
// wherever the caller is — inside its band polling ctx or waiting on the
// helpers' — and requires context.Canceled, every city.* counter back at
// its value before the run, and no goroutine left behind.
func TestRunCancelNetsZero(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	counters := []*obs.Counter{cRuns, cEvents, cActiveSlots, cArrivals, cDelivered, cDropped,
		cTransmissions, cCollidedTx, cUnreachable, cTxEnergyNJ, cForeignTx}
	before := make([]int64, len(counters))
	for i, c := range counters {
		before[i] = c.Value()
	}
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := busyCity(DriverEvent)
	cfg.Foreign = []ForeignConfig{{Nodes: 2000, ArrivalPerSlot: 0.01}}
	if m, err := Run(ctx, cfg); !errors.Is(err, context.DeadlineExceeded) || m != nil {
		t.Fatalf("canceled run returned (%v, %v), want nil metrics and context.DeadlineExceeded", m, err)
	}
	for i, c := range counters {
		if c.Value() != before[i] {
			t.Errorf("counter %d moved by %+d across a canceled run", i, c.Value()-before[i])
		}
	}
	waitGoroutines(t, baseline)
}
