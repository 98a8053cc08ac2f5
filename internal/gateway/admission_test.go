package gateway

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"choir/internal/obs"
)

// TestAdmissionControllerTrajectory pins the AIMD arithmetic with a fixed
// latency feed: p99 over target halves the window (floored at admissionMin), under
// target grows it by one (capped at max). Same feed, same trajectory —
// the controller is deterministic given its inputs.
func TestAdmissionControllerTrajectory(t *testing.T) {
	a := newAdmissionController(time.Millisecond, 4, 8)
	if got := a.Limit(); got != 8 {
		t.Fatalf("initial limit %d, want 8 (wide open)", got)
	}
	over := int64(2 * time.Millisecond)  // above target
	under := int64(time.Millisecond / 2) // below target

	feed := func(v int64, n int) {
		for i := 0; i < n; i++ {
			a.observe(v)
		}
	}
	// Three overloaded windows: 8 -> 4 -> 2 -> 1.
	for _, want := range []int64{4, 2, 1} {
		feed(over, 4)
		if got := a.Limit(); got != want {
			t.Fatalf("after overloaded window: limit %d, want %d", got, want)
		}
	}
	// The floor holds.
	feed(over, 4)
	if got := a.Limit(); got != 1 {
		t.Fatalf("window fell through the floor: %d", got)
	}
	// Recovery: one step per calm window, 1 -> 2 -> 3.
	for _, want := range []int64{2, 3} {
		feed(under, 4)
		if got := a.Limit(); got != want {
			t.Fatalf("after calm window: limit %d, want %d", got, want)
		}
	}
	// A mixed window is judged by its p99: one slow frame among four puts
	// the p99 at the slow frame (rank 3 of 4), shrinking again.
	feed(under, 3)
	feed(over, 1)
	if got := a.Limit(); got != 1 {
		t.Fatalf("mixed window: limit %d, want 1 (p99 rides the tail)", got)
	}
	// The ceiling holds: calm windows never push past max.
	for i := 0; i < 20; i++ {
		feed(under, 4)
	}
	if got := a.Limit(); got != 8 {
		t.Fatalf("window overshot the ceiling: %d", got)
	}
}

// TestAdmissionShedsUnderOverload drives a journaling-free gateway with an
// unreachable latency target (1ns): every evaluation window shrinks the
// admission limit toward the floor, the gateway.admission.* counters move,
// and submissions start shedding at the window even though the queue itself
// has room.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	obs.Reset()
	g, err := New(Config{
		Queue: 32, Workers: 2, Policy: ShedReject,
		AdmissionTarget: time.Nanosecond, AdmissionEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	h, sig, _ := synthFrame(1)
	accepted, rejected := 0, 0
	for i := 0; i < 64; i++ {
		if _, err := g.Submit(nil, "burst", h, sig); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	// Keep submitting until the shrunk window visibly defers admissions.
	deadline := time.Now().Add(10 * time.Second)
	for mAdmissionDeferred.Value() == 0 && time.Now().After(deadline) == false {
		if _, err := g.Submit(nil, "burst", h, sig); err != nil {
			rejected++
		} else {
			accepted++
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != accepted {
		t.Fatalf("%d outcomes for %d accepted frames", len(outs), accepted)
	}
	if got := g.AdmissionLimit(); got >= 32 {
		t.Errorf("admission window never shrank: %d", got)
	}
	if mAdmissionShrinks.Value() == 0 {
		t.Error("gateway.admission.shrinks never moved")
	}
	if mAdmissionDeferred.Value() == 0 {
		t.Error("gateway.admission.deferred never moved")
	}
	if rejected == 0 {
		t.Error("overload never shed a submission")
	}
}

// TestAdmissionBlockPolicyNoDeadlock pins the ShedBlock interaction: with
// the window at its floor, a blocked submitter must be woken by outcomes
// (capacity frees at emit under admission control, not at dequeue), so a
// sequential feed always completes.
func TestAdmissionBlockPolicyNoDeadlock(t *testing.T) {
	g, err := New(Config{
		Queue: 4, Workers: 1, Policy: ShedBlock,
		AdmissionTarget: time.Nanosecond, AdmissionEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	h, sig, _ := synthFrame(2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	const n = 12
	for i := 0; i < n; i++ {
		if _, err := g.Submit(ctx, "blocked", h, sig); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if outs := <-done; len(outs) != n {
		t.Fatalf("%d outcomes, want %d", len(outs), n)
	}
}

// TestAdmissionDeterministicAcrossWorkers pins that enabling admission
// control does not break the gateway's worker-count determinism: under
// ShedBlock (no shedding, only throttling) the multiset of decode outcomes
// is identical for W=1 and W=8.
func TestAdmissionDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []string {
		g, err := New(Config{
			Queue: 4, Workers: workers, Policy: ShedBlock,
			AdmissionTarget: time.Nanosecond, AdmissionEvery: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		done := collectOutcomes(g)
		for i := 0; i < 8; i++ {
			h, sig, _ := synthFrame(uint64(i + 1))
			if _, err := g.Submit(nil, "det", h, sig); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, o := range <-done {
			s := o.Kind.String() + "/" + o.Backend
			for _, p := range o.Payloads {
				s += "/" + string(p)
			}
			got = append(got, s)
		}
		sort.Strings(got)
		return got
	}
	w1, w8 := run(1), run(8)
	if len(w1) != len(w8) {
		t.Fatalf("outcome counts differ: %d vs %d", len(w1), len(w8))
	}
	for i := range w1 {
		if w1[i] != w8[i] {
			t.Fatalf("outcome %d differs:\nW=1: %s\nW=8: %s", i, w1[i], w8[i])
		}
	}
}

// TestReadyReflectsState pins the readiness signal: ready while accepting
// with queue headroom, not ready once draining.
func TestReadyReflectsState(t *testing.T) {
	g, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Healthy() || !g.Ready() {
		t.Error("fresh gateway not healthy/ready")
	}
	done := collectOutcomes(g)
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
	if g.Ready() {
		t.Error("drained gateway still ready")
	}
	if g.Healthy() {
		t.Error("drained gateway still healthy")
	}
}

// TestReadyFullQueueNotReady pins the shed-threshold clause: a gateway
// whose queue is at capacity reports not ready (it would shed the next
// submit) while staying healthy.
func TestReadyFullQueueNotReady(t *testing.T) {
	g, err := build(Config{Queue: 1, Policy: ShedReject}) // no workers
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(3)
	if _, err := g.Submit(nil, "a", h, sig); err != nil {
		t.Fatal(err)
	}
	if g.Ready() {
		t.Error("full queue reported ready")
	}
	if !g.Healthy() {
		t.Error("full queue reported unhealthy")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}

// TestReadyShrunkAdmissionWindowNotReady pins that Ready applies the test
// submitFrame does: with the AIMD window shrunk to one frame and that frame
// pending, the queue has room but the next submit sheds, so the gateway is
// not ready.
func TestReadyShrunkAdmissionWindowNotReady(t *testing.T) {
	g, err := build(Config{ // no workers
		Queue: 8, Policy: ShedReject,
		AdmissionTarget: time.Millisecond, AdmissionEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for g.AdmissionLimit() > 1 {
		g.admission.observe(int64(2 * time.Millisecond))
	}
	if !g.Ready() {
		t.Error("shrunk window with nothing pending reported not ready")
	}
	h, sig, _ := synthFrame(3)
	if _, err := g.Submit(nil, "a", h, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(nil, "b", h, sig); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit beyond the window: err = %v, want ErrQueueFull", err)
	}
	if g.Ready() {
		t.Error("gateway that sheds every offer reported ready")
	}
	if !g.Healthy() {
		t.Error("full admission window reported unhealthy")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}
