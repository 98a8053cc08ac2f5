package gateway

import (
	"context"
	"errors"
	"testing"
	"time"
)

// journaledConfig is the base config the recovery tests share: journaling
// on, decode fast and deterministic.
func journaledConfig(dir string) Config {
	return Config{Queue: 8, Workers: 2, JournalDir: dir}
}

// TestJournalCleanLifecycleLeavesNothing pins that a journaled gateway that
// decodes everything and drains gracefully leaves an empty journal: a
// restart replays nothing.
func TestJournalCleanLifecycleLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	g, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	h, sig, _ := synthFrame(1)
	for i := 0; i < 3; i++ {
		if _, err := g.Submit(nil, "t", h, sig); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3", len(outs))
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 {
		t.Errorf("clean shutdown left %d incomplete frames", len(rec.Incomplete))
	}
	if len(rec.Completed) != 0 {
		t.Errorf("clean shutdown left %d settled pairs on disk", len(rec.Completed))
	}
}

// TestJournalReplayAfterSimulatedCrash is the in-process crash-recovery
// test: frames journaled but never decoded (the "process" dies with them
// queued) are replayed by the next gateway under their original IDs and get
// exactly one terminal outcome.
func TestJournalReplayAfterSimulatedCrash(t *testing.T) {
	dir := t.TempDir()
	// Life 1: a gateway with no workers — build() without start() — admits
	// frames durably but never decodes them. Abandoning it without Drain is
	// the closest in-process stand-in for SIGKILL: no completion records,
	// no journal close.
	g1, err := build(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	h, sig, truth := synthFrame(7)
	var ids []uint64
	for i := 0; i < 3; i++ {
		id, err := g1.Submit(nil, "life1", h, sig)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	g1.journal.Close() // release the file; the records stay

	// Life 2: a real gateway recovers the journal and decodes the replays.
	g2, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if st := g2.Stats(); st.Replayed != 3 || st.Accepted != 3 {
		t.Fatalf("stats after recovery = %+v", st)
	}
	done := collectOutcomes(g2)
	if err := g2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 3 {
		t.Fatalf("%d outcomes, want 3 (one per replayed frame)", len(outs))
	}
	seen := map[uint64]bool{}
	for _, o := range outs {
		if seen[o.FrameID] {
			t.Fatalf("frame %d got two terminal outcomes", o.FrameID)
		}
		seen[o.FrameID] = true
		if !o.Replayed {
			t.Errorf("frame %d outcome not flagged Replayed", o.FrameID)
		}
		if o.Kind != OutcomeDecoded {
			t.Errorf("replayed frame %d: %v (%v), want decoded", o.FrameID, o.Kind, o.Err)
		} else if len(o.Payloads) != len(truth) {
			t.Errorf("replayed frame %d recovered %d payloads, want %d", o.FrameID, len(o.Payloads), len(truth))
		}
	}
	for _, id := range ids {
		if !seen[id] {
			t.Errorf("admitted frame %d never got an outcome", id)
		}
	}
	// Life 3: everything was completed; nothing replays.
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 {
		t.Errorf("life 3 would replay %d frames after life 2 completed all", len(rec.Incomplete))
	}
}

// TestJournalReplayMatchesFreshDecode pins the determinism contract across
// process death: a replayed frame's outcome is byte-identical to what the
// frame would have produced had the first process lived, because each rung
// it tries reads only its samples and no state crosses process lives.
func TestJournalReplayMatchesFreshDecode(t *testing.T) {
	h, sig, _ := synthFrame(9)

	// Reference: a journal-free gateway decodes the frame directly.
	ref, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refDone := collectOutcomes(ref)
	if _, err := ref.Submit(nil, "ref", h, sig); err != nil {
		t.Fatal(err)
	}
	if err := ref.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	refOuts := <-refDone

	// Crash-and-replay: same frame, but decoded by a second life.
	dir := t.TempDir()
	g1, err := build(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g1.Submit(nil, "life1", h, sig); err != nil {
		t.Fatal(err)
	}
	g1.journal.Close()
	g2, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g2)
	if err := g2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done

	if len(refOuts) != 1 || len(outs) != 1 {
		t.Fatalf("reference %d outcomes, replay %d, want 1 each", len(refOuts), len(outs))
	}
	r, o := refOuts[0], outs[0]
	if r.FrameID != o.FrameID || r.Kind != o.Kind || r.Stage != o.Stage ||
		r.Backend != o.Backend || r.Attempts != o.Attempts || r.Users != o.Users {
		t.Fatalf("replayed outcome diverged:\nfresh:  %+v\nreplay: %+v", r, o)
	}
	if len(r.Payloads) != len(o.Payloads) {
		t.Fatalf("payload count diverged: %d vs %d", len(r.Payloads), len(o.Payloads))
	}
	for i := range r.Payloads {
		if string(r.Payloads[i]) != string(o.Payloads[i]) {
			t.Fatalf("payload %d diverged", i)
		}
	}
}

// TestJournalCompletedBeforeRestart pins the report-loss window closure: a
// frame whose completion was journaled but whose outcome was never consumed
// (killed between the journal append and the report) is surfaced to the
// next life as CompletedBeforeRestart, not replayed.
func TestJournalCompletedBeforeRestart(t *testing.T) {
	dir := t.TempDir()
	g1, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g1)
	h, sig, _ := synthFrame(3)
	id, err := g1.Submit(nil, "life1", h, sig)
	if err != nil {
		t.Fatal(err)
	}
	// Let the decode finish (the completion record lands before the outcome
	// is published), then abandon the gateway without consuming Drain's
	// bookkeeping — the outcome was "never reported".
	deadline := time.Now().Add(10 * time.Second)
	for g1.Stats().Decoded+g1.Stats().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("decode never finished")
		}
		time.Sleep(time.Millisecond)
	}
	g1.journal.Close()

	g2, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := g2.Stats().Replayed; got != 0 {
		t.Errorf("completed frame was replayed (%d replays)", got)
	}
	notices := g2.CompletedBeforeRestart()
	if len(notices) != 1 || notices[0] != id {
		t.Errorf("CompletedBeforeRestart = %v, want [%d]", notices, id)
	}
	if err := g2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for range g2.Outcomes() {
	}
	// Release life 1's worker pool (its journal is already closed; the
	// drain's completion appends are ignored as ErrClosed).
	if err := g1.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-done
}

// TestJournalRejectedSubmitNotReplayed pins that a frame journaled at
// admission but then rejected (queue full under ShedReject) settles its
// journal pair: it is NOT replayed after a restart — the submitter was told
// it was never accepted.
func TestJournalRejectedSubmitNotReplayed(t *testing.T) {
	dir := t.TempDir()
	cfg := journaledConfig(dir)
	cfg.Queue = 1
	cfg.Policy = ShedReject
	g, err := build(cfg) // no workers: the queue stays full
	if err != nil {
		t.Fatal(err)
	}
	h, sig, _ := synthFrame(5)
	if _, err := g.Submit(nil, "a", h, sig); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Submit(nil, "b", h, sig); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	g.journal.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 1 {
		t.Fatalf("recovery would replay %d frames, want 1 (only the accepted one)", len(rec.Incomplete))
	}
	if rec.Incomplete[0].ID != 1 {
		t.Errorf("recovered frame %d, want 1", rec.Incomplete[0].ID)
	}
}

// TestJournalDisabledUnchanged pins the journaling-off contract: with
// JournalDir empty the gateway touches no disk and behaves exactly as
// before (no Replayed flags, no journal state).
func TestJournalDisabledUnchanged(t *testing.T) {
	g, err := New(Config{Queue: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.journal != nil {
		t.Fatal("journal built without JournalDir")
	}
	done := collectOutcomes(g)
	h, sig, _ := synthFrame(11)
	if _, err := g.Submit(nil, "t", h, sig); err != nil {
		t.Fatal(err)
	}
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 1 || outs[0].Replayed {
		t.Fatalf("outcomes = %+v", outs)
	}
}

// TestRecoverMissingDir pins Recover on a never-created directory: empty,
// not an error (a first boot has no journal yet).
func TestRecoverMissingDir(t *testing.T) {
	rec, err := Recover(t.TempDir() + "/never")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 || len(rec.Completed) != 0 || rec.MaxID != 0 {
		t.Errorf("missing dir recovered %+v", rec)
	}
}

// TestJournalStreamingAbortNoReplay pins the streaming gap contract: a
// streamed frame that aborts mid-delivery was never journaled, so a restart
// does not replay it (its terminal outcome — ErrStreamAborted — already
// happened in the life that accepted it).
func TestJournalStreamingAbortNoReplay(t *testing.T) {
	dir := t.TempDir()
	g, err := New(journaledConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	done := collectOutcomes(g)
	h, sig, _ := synthFrame(13)
	sb := newStreamBuffer(len(sig))
	f := &Frame{Source: "stream", Header: h, Samples: sb.buf, stream: sb}
	if _, err := g.submitFrame(context.Background(), f); err != nil {
		t.Fatal(err)
	}
	// Deliver half the frame, then abort the "connection".
	copy(sb.buf, sig[:len(sig)/2])
	sb.extend(len(sig) / 2)
	sb.complete(errors.New("peer vanished"))
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	outs := <-done
	if len(outs) != 1 || outs[0].Kind != OutcomeFailed || !errors.Is(outs[0].Err, ErrStreamAborted) {
		t.Fatalf("aborted stream outcomes = %+v", outs)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Incomplete) != 0 {
		t.Errorf("aborted stream left %d frames to replay", len(rec.Incomplete))
	}
}
