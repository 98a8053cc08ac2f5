package engine

import (
	"context"
	"errors"
	"testing"

	"choir/internal/obs"
)

// TestLiveProgressFlushRollback pins the delta arithmetic: consecutive
// flushes stream only the growth since the last, rollback retracts
// exactly the streamed total.
func TestLiveProgressFlushRollback(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	ev0, del0, drop0 := cEvents.Value(), cDelivered.Value(), cDropped.Value()

	var lp liveProgress
	lp.flush(&Metrics{Events: 10, Delivered: 3})
	if got := cEvents.Value() - ev0; got != 10 {
		t.Fatalf("first flush streamed %d events, want 10", got)
	}
	if got := cDelivered.Value() - del0; got != 3 {
		t.Fatalf("first flush streamed %d delivered, want 3", got)
	}
	// The second flush carries cumulative totals; only the delta lands.
	lp.flush(&Metrics{Events: 25, Delivered: 7, Dropped: 2})
	if got := cEvents.Value() - ev0; got != 25 {
		t.Fatalf("after second flush events delta %d, want 25", got)
	}
	if got := cDropped.Value() - drop0; got != 2 {
		t.Fatalf("after second flush dropped delta %d, want 2", got)
	}
	lp.rollback()
	if cEvents.Value() != ev0 || cDelivered.Value() != del0 || cDropped.Value() != drop0 {
		t.Fatalf("rollback did not net to zero: events %+d delivered %+d dropped %+d",
			cEvents.Value()-ev0, cDelivered.Value()-del0, cDropped.Value()-drop0)
	}
}

// TestLiveProgressFinish pins completion accounting: city.runs moves only
// at finish, and the net streamed total equals the final Metrics exactly,
// regardless of how much was streamed mid-run.
func TestLiveProgressFinish(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	runs0, ev0, del0 := cRuns.Value(), cEvents.Value(), cDelivered.Value()

	var lp liveProgress
	lp.flush(&Metrics{Events: 5, Delivered: 1})
	if cRuns.Value() != runs0 {
		t.Fatal("city.runs moved on a mid-run flush")
	}
	lp.finish(&Metrics{Events: 12, Delivered: 4})
	if got := cRuns.Value() - runs0; got != 1 {
		t.Fatalf("finish counted %d runs, want 1", got)
	}
	if got := cEvents.Value() - ev0; got != 12 {
		t.Fatalf("net events %d, want 12", got)
	}
	if got := cDelivered.Value() - del0; got != 4 {
		t.Fatalf("net delivered %d, want 4", got)
	}
}

// TestLiveProgressDisabled pins the gate: with recording off, flushes
// stream nothing and remember nothing, so a later rollback cannot
// underflow counters it never fed.
func TestLiveProgressDisabled(t *testing.T) {
	obs.Disable()
	var lp liveProgress
	lp.flush(&Metrics{Events: 100})
	if lp.streamed.Events != 0 {
		t.Fatalf("disabled flush recorded %d streamed events", lp.streamed.Events)
	}
	obs.Enable()
	defer obs.Disable()
	ev0 := cEvents.Value()
	lp.rollback()
	if got := cEvents.Value(); got != ev0 {
		t.Fatalf("rollback after disabled flush moved events by %d", got-ev0)
	}
}

// TestRunStreamsLiveCounters is the end-to-end pin for the live stream: a
// long event-driver run publishes partial city.* totals while still in
// flight (what a -debug-addr scrape would see), city.runs stays put until
// completion, and cancellation retracts everything streamed. The run is cut
// at its first poll after city.events moves, and the counters are read at
// that poll.
func TestRunStreamsLiveCounters(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	runs0, ev0, arr0 := cRuns.Value(), cEvents.Value(), cArrivals.Value()

	var arrAtCut, runsAtCut int64
	ctx := newCutCtx(func(int) bool {
		if cEvents.Value() == ev0 {
			return false
		}
		arrAtCut, runsAtCut = cArrivals.Value(), cRuns.Value()
		return true
	})
	// busyCity saturates every slot, so the first live flush comes after
	// liveFlushInterval active slots; its 100M-slot horizon is far away.
	_, err := Run(ctx, busyCity(DriverEvent))
	if ctx.cutAt == 0 {
		t.Fatalf("no live counter movement while the run was in flight (run returned %v)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	if arrAtCut == arr0 {
		t.Error("city.arrivals never streamed mid-run")
	}
	if runsAtCut != runs0 {
		t.Error("city.runs moved before completion")
	}
	if got := cEvents.Value(); got != ev0 {
		t.Errorf("cancellation left %+d streamed events behind", got-ev0)
	}
	if got := cArrivals.Value(); got != arr0 {
		t.Errorf("cancellation left %+d streamed arrivals behind", got-arr0)
	}
}
