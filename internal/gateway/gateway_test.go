package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"choir/internal/choir"
	"choir/internal/fault"
	"choir/internal/lora"
	"choir/internal/obs"
	"choir/internal/sim"
	"choir/internal/trace"
)

// synthFrame renders one SF7 two-user collision for gateway tests.
func synthFrame(scSeed uint64) (trace.Header, []complex128, [][]byte) {
	p := lora.DefaultParams()
	p.SF = lora.SF7
	sc := sim.Scenario{Params: p, PayloadLen: 4, SNRsDB: []float64{15, 12}, Seed: scSeed}
	sig, truth := sc.Synthesize()
	return trace.Header{Params: p, PayloadLen: 4}, sig, truth
}

// collectOutcomes drains the outcome stream on a goroutine until it closes.
func collectOutcomes(g *Gateway) <-chan []Outcome {
	done := make(chan []Outcome, 1)
	go func() {
		var out []Outcome
		for o := range g.Outcomes() {
			out = append(out, o)
		}
		done <- out
	}()
	return done
}

// canceledCtx returns an already-canceled context (forces hard-stop drains
// in tests that run no workers).
func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestShedRejectPolicy pins ShedReject with no workers racing the queue: a
// full queue refuses the submit with ErrQueueFull and no outcome, and the
// already-accepted frames are flushed as shed on shutdown.
func TestShedRejectPolicy(t *testing.T) {
	g, err := build(Config{Queue: 1, Policy: ShedReject})
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(1)
	if _, err := g.Submit(nil, "a", h, sig); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := g.Submit(nil, "b", h, sig); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	done := collectOutcomes(g)
	if err := g.Drain(canceledCtx()); err == nil {
		t.Error("hard-stopped drain returned nil error")
	}
	outs := <-done
	if len(outs) != 1 || outs[0].Kind != OutcomeShed || !errors.Is(outs[0].Err, ErrShed) {
		t.Fatalf("flushed outcomes = %+v, want one shed", outs)
	}
	st := g.Stats()
	if st.Accepted != 1 || st.Shed != 1 || st.Decoded+st.Failed != 0 {
		t.Errorf("stats = %+v, want 1 accepted, 1 shed", st)
	}
}

// TestShedDropOldestPolicy pins the eviction path: the oldest queued frame
// is traded for the newest and gets a typed shed outcome immediately.
func TestShedDropOldestPolicy(t *testing.T) {
	g, err := build(Config{Queue: 2, Policy: ShedDropOldest})
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(1)
	id1, _ := g.Submit(nil, "a", h, sig)
	if _, err := g.Submit(nil, "b", h, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(nil, "c", h, sig); err != nil {
		t.Fatalf("drop-oldest submit failed: %v", err)
	}
	// The eviction outcome is already buffered.
	select {
	case o := <-g.Outcomes():
		if o.FrameID != id1 || o.Kind != OutcomeShed || !errors.Is(o.Err, ErrShed) {
			t.Fatalf("evicted outcome = %+v, want shed frame %d", o, id1)
		}
	default:
		t.Fatal("no shed outcome after eviction")
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	outs := <-done
	st := g.Stats()
	if st.Accepted != 3 || st.Shed != 3 {
		t.Errorf("stats = %+v, want 3 accepted / 3 shed", st)
	}
	if got := 1 + len(outs); got != 3 {
		t.Errorf("total outcomes = %d, want 3 (exactly one per accepted frame)", got)
	}
}

// TestShedBlockPolicyCancel pins that a blocked submitter respects its own
// context and reports the wait as ErrQueueFull.
func TestShedBlockPolicyCancel(t *testing.T) {
	g, err := build(Config{Queue: 1, Policy: ShedBlock})
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(1)
	if _, err := g.Submit(nil, "a", h, sig); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = g.Submit(ctx, "b", h, sig)
	if !errors.Is(err, ErrQueueFull) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit error = %v, want ErrQueueFull wrapping DeadlineExceeded", err)
	}
	done := collectOutcomes(g)
	_ = g.Drain(canceledCtx())
	<-done
}

// TestSubmitAfterDrainStopped pins ErrStopped and Drain idempotency.
func TestSubmitAfterDrainStopped(t *testing.T) {
	g, err := New(Config{Queue: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	if err := g.Drain(context.Background()); err != nil {
		t.Fatalf("graceful drain of empty gateway: %v", err)
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	h, sig, _ := synthFrame(1)
	if _, err := g.Submit(nil, "late", h, sig); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after drain = %v, want ErrStopped", err)
	}
	if outs := <-done; len(outs) != 0 {
		t.Errorf("outcomes from empty gateway: %+v", outs)
	}
}

// TestLadderRecoversDriftedFrame is the recovery-ladder proof: a two-user
// SF7 collision hit by an oscillator drift step that the full-SIC stage
// cannot decode (its fingerprint matching loses every user) is recovered by
// the relaxed stage, with the ladder path visible in stats and metrics.
// The scenario constants were found by exhaustive offline search and are
// deterministic: scenario seed 1, DriftStep at intensity 0.30.
func TestLadderRecoversDriftedFrame(t *testing.T) {
	obs.Enable()
	defer obs.Disable()

	h, sig, truth := synthFrame(1)
	inj := mustInject(fault.DriftStep, 0.30)
	faulted := inj.Apply(append([]complex128(nil), sig...), 1^0xFA017)

	g, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ladder []string
	for _, r := range g.rungs {
		ladder = append(ladder, r.name)
	}
	if got := fmt.Sprint(ladder); got != fmt.Sprint(DefaultLadder()) {
		t.Fatalf("default ladder = %s, want %s", got, fmt.Sprint(DefaultLadder()))
	}
	// Rung metrics are keyed by backend name and shared process-wide, so
	// snapshot them after the gateway (and thus the counters) exist but
	// before any frame is submitted.
	fullBefore := g.rungs[StageFull].attempts.Value()
	relaxedBefore := g.rungs[StageRelaxed].success.Value()
	recoveredBefore := mRecovered.Value()
	done := collectOutcomes(g)
	if _, err := g.Submit(nil, "drifted", h, faulted); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 1 {
		t.Fatalf("got %d outcomes, want 1", len(outs))
	}
	o := outs[0]
	if o.Kind != OutcomeDecoded {
		t.Fatalf("outcome = %+v, want decoded", o)
	}
	if o.Stage != StageRelaxed || o.Attempts != 2 {
		t.Errorf("decoded at stage %s after %d attempts, want relaxed after 2", o.Stage, o.Attempts)
	}
	if o.Backend != "relaxed" {
		t.Errorf("decoded by backend %q, want %q", o.Backend, "relaxed")
	}
	wantPayload := false
	for _, p := range o.Payloads {
		for _, tp := range truth {
			if string(p) == string(tp) {
				wantPayload = true
			}
		}
	}
	if !wantPayload {
		t.Errorf("recovered payloads %x do not include a ground-truth payload %x", o.Payloads, truth)
	}
	if st := g.Stats(); st.Recovered != 1 || st.Decoded != 1 {
		t.Errorf("stats = %+v, want 1 decoded / 1 recovered", st)
	}
	// The ladder path is visible in the name-keyed rung metrics: the choir
	// backend was attempted (and failed), the relaxed backend succeeded,
	// and the frame counts as a recovery.
	if d := g.rungs[StageFull].attempts.Value() - fullBefore; d != 1 {
		t.Errorf("choir-rung attempts delta = %d, want 1", d)
	}
	if d := g.rungs[StageRelaxed].success.Value() - relaxedBefore; d != 1 {
		t.Errorf("relaxed-rung success delta = %d, want 1", d)
	}
	if d := mRecovered.Value() - recoveredBefore; d != 1 {
		t.Errorf("recovered counter delta = %d, want 1", d)
	}
}

// TestOutcomesDeterministicAcrossWorkers pins the gateway's half of the
// repository determinism contract: the same capture stream produces
// bit-identical outcomes for any worker count, because a decode reads only
// the frame's samples.
func TestOutcomesDeterministicAcrossWorkers(t *testing.T) {
	runWith := func(workers int) map[uint64]Outcome {
		g, err := New(Config{Queue: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		done := collectOutcomes(g)
		for s := uint64(1); s <= 6; s++ {
			h, sig, _ := synthFrame(s)
			if _, err := g.Submit(nil, fmt.Sprintf("f%d", s), h, sig); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		byID := map[uint64]Outcome{}
		for _, o := range <-done {
			byID[o.FrameID] = o
		}
		return byID
	}
	serial := runWith(1)
	parallel := runWith(4)
	if len(serial) != 6 || len(parallel) != 6 {
		t.Fatalf("outcome counts = %d / %d, want 6 each", len(serial), len(parallel))
	}
	for id, s := range serial {
		p := parallel[id]
		if s.Kind != p.Kind || s.Stage != p.Stage || s.Backend != p.Backend || s.Attempts != p.Attempts || s.Users != p.Users {
			t.Errorf("frame %d differs across workers: %+v vs %+v", id, s, p)
		}
		if fmt.Sprintf("%x", s.Payloads) != fmt.Sprintf("%x", p.Payloads) {
			t.Errorf("frame %d payloads differ: %x vs %x", id, s.Payloads, p.Payloads)
		}
	}
}

// TestDrainHardStopTerminalOutcomes pins the exactly-one-outcome invariant
// through a hard stop: frames caught mid-decode finish as canceled typed
// failures, queued frames flush as shed, nothing is lost or duplicated.
func TestDrainHardStopTerminalOutcomes(t *testing.T) {
	g, err := New(Config{Queue: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	const n = 4
	for s := uint64(1); s <= n; s++ {
		h, sig, _ := synthFrame(s)
		if _, err := g.Submit(nil, fmt.Sprintf("f%d", s), h, sig); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_ = g.Drain(ctx) // hard stop is allowed to report the cut-short error
	outs := <-done
	if len(outs) != n {
		t.Fatalf("got %d outcomes for %d accepted frames", len(outs), n)
	}
	seen := map[uint64]bool{}
	for _, o := range outs {
		if seen[o.FrameID] {
			t.Errorf("frame %d has two terminal outcomes", o.FrameID)
		}
		seen[o.FrameID] = true
		switch o.Kind {
		case OutcomeDecoded:
		case OutcomeShed:
			if !errors.Is(o.Err, ErrShed) {
				t.Errorf("shed outcome with untyped error: %v", o.Err)
			}
		case OutcomeFailed:
			if !errors.Is(o.Err, choir.ErrCanceled) && !errors.Is(o.Err, ErrLadderExhausted) {
				t.Errorf("failed outcome with untyped error: %v", o.Err)
			}
		}
	}
	st := g.Stats()
	if st.Accepted != n || st.Decoded+st.Failed+st.Shed != n {
		t.Errorf("stats do not balance: %+v", st)
	}
}

// TestOutcomeIndependentOfHistory pins that no state crosses from one frame
// to the next. With the library's default Config, a burst of captures too
// short for one preamble symbol ahead of 20 good frames changes none of the
// good frames' outcomes from what a fresh gateway gives them, for one worker
// or four, and leaves the gateway ready once the burst's outcomes are out.
func TestOutcomeIndependentOfHistory(t *testing.T) {
	const junk, good = 12, 20
	// decodeGood submits the good frames, drains g, and keys each outcome's
	// (Kind, Stage, Backend, Attempts, Payloads) by its source.
	decodeGood := func(g *Gateway) map[string]string {
		done := collectOutcomes(g)
		for s := uint64(1); s <= good; s++ {
			h, sig, _ := synthFrame(s)
			if _, err := g.Submit(nil, fmt.Sprintf("good-%d", s), h, sig); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, o := range <-done {
			got[o.Source] = fmt.Sprintf("%v at %v by %q after %d attempt(s): %x", o.Kind, o.Stage, o.Backend, o.Attempts, o.Payloads)
		}
		return got
	}
	for _, workers := range []int{1, 4} {
		fresh, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		want := decodeGood(fresh)

		g, err := New(Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		h, _, _ := synthFrame(1)
		for i := 0; i < junk; i++ {
			if _, err := g.Submit(nil, "junk", h, make([]complex128, 8)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < junk; i++ {
			if o := <-g.Outcomes(); o.Kind != OutcomeFailed || o.Attempts != len(DefaultLadder()) {
				t.Errorf("workers %d: junk frame %d: %v after %d attempt(s), want failed after every rung", workers, o.FrameID, o.Kind, o.Attempts)
			}
		}
		if !g.Ready() {
			t.Errorf("workers %d: not ready after a burst of %d undecodable captures", workers, junk)
		}
		got := decodeGood(g)
		if len(got) != good {
			t.Fatalf("workers %d: %d good outcomes, want %d", workers, len(got), good)
		}
		for src, w := range want {
			if got[src] != w {
				t.Errorf("workers %d: %s after the burst: %s\n\tfresh gateway: %s", workers, src, got[src], w)
			}
		}
	}
}
