package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"choir/internal/lora"
	"choir/internal/trace"
)

// testHeader builds a valid trace header (recovery re-validates PHY params,
// so a fabricated one must pass lora.Params.Validate).
func testHeader(payload int) trace.Header {
	return trace.Header{Params: lora.DefaultParams(), PayloadLen: payload}
}

// testSamples builds a distinguishable sample payload for frame id.
func testSamples(id uint64, n int) []complex128 {
	s := make([]complex128, n)
	for i := range s {
		s[i] = complex(float64(id), float64(i))
	}
	return s
}

func mustOpen(t *testing.T, dir string, opts Options) (*Writer, []Entry, []uint64) {
	t.Helper()
	w, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return w, rec.Incomplete, rec.Completed
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, inc, done := mustOpen(t, dir, Options{})
	if len(inc) != 0 || len(done) != 0 {
		t.Fatalf("fresh journal not empty: %d incomplete, %d completed", len(inc), len(done))
	}
	for id := uint64(1); id <= 3; id++ {
		if err := w.Append(id, testHeader(int(id)), testSamples(id, 50)); err != nil {
			t.Fatalf("Append(%d): %v", id, err)
		}
	}
	if err := w.Complete(2); err != nil {
		t.Fatalf("Complete(2): %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	inc2, done2, maxID, err := Scan(dir)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if maxID != 3 {
		t.Errorf("maxID = %d, want 3", maxID)
	}
	if len(done2) != 1 || done2[0] != 2 {
		t.Errorf("completed = %v, want [2]", done2)
	}
	if len(inc2) != 2 || inc2[0].ID != 1 || inc2[1].ID != 3 {
		t.Fatalf("incomplete = %+v, want frames 1 and 3 in order", inc2)
	}
	for _, e := range inc2 {
		if e.Header.PayloadLen != int(e.ID) {
			t.Errorf("frame %d: payload len %d", e.ID, e.Header.PayloadLen)
		}
		want := testSamples(e.ID, 50)
		if len(e.Samples) != len(want) {
			t.Fatalf("frame %d: %d samples, want %d", e.ID, len(e.Samples), len(want))
		}
		for i := range want {
			if e.Samples[i] != want[i] {
				t.Fatalf("frame %d sample %d differs", e.ID, i)
			}
		}
	}
}

func TestJournalRecoveryReopen(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := mustOpen(t, dir, Options{})
	for id := uint64(1); id <= 3; id++ {
		if err := w.Append(id, testHeader(8), testSamples(id, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Complete(1); err != nil {
		t.Fatal(err)
	}
	w.Close() // simulated death: 2 and 3 admitted, never completed

	w2, inc, done := mustOpen(t, dir, Options{})
	if len(done) != 1 || done[0] != 1 {
		t.Errorf("completed = %v, want [1]", done)
	}
	if len(inc) != 2 || inc[0].ID != 2 || inc[1].ID != 3 {
		t.Fatalf("incomplete = %+v, want frames 2 and 3", inc)
	}
	// The recovered state was re-journaled into a fresh segment and the old
	// ones deleted: exactly one segment file remains.
	if segs := segFiles(t, dir); len(segs) != 1 {
		t.Errorf("after recovery: %d segments, want 1 (%v)", len(segs), segs)
	}
	// Completing the replayed frames settles the journal entirely.
	w2.Complete(2)
	w2.Complete(3)
	w2.Close()
	inc3, done3, _, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc3) != 0 {
		t.Errorf("after completing replays: %d incomplete", len(inc3))
	}
	if len(done3) != 2 {
		t.Errorf("after completing replays: completed = %v, want both", done3)
	}
	// A third open finds nothing to replay and reports the settled pairs.
	w3, inc4, done4 := mustOpen(t, dir, Options{})
	w3.Close()
	if len(inc4) != 0 || len(done4) != 2 {
		t.Errorf("third open: %d incomplete, completed %v", len(inc4), done4)
	}
}

func TestJournalSegmentRotationAndReclaim(t *testing.T) {
	dir := t.TempDir()
	// Tiny rotation threshold: every record lands in its own segment.
	w, _, _ := mustOpen(t, dir, Options{SegmentBytes: 64})
	const n = 6
	for id := uint64(1); id <= n; id++ {
		if err := w.Append(id, testHeader(4), testSamples(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	rotated := len(segFiles(t, dir))
	if rotated < 3 {
		t.Fatalf("rotation threshold not exercised: %d segments for %d frames", rotated, n)
	}
	// Completing every frame reclaims all rotated segments; only segments
	// that still hold outstanding admits (or the active one) may remain.
	for id := uint64(1); id <= n; id++ {
		if err := w.Complete(id); err != nil {
			t.Fatal(err)
		}
	}
	after := len(segFiles(t, dir))
	if after > 2 { // active segment plus at most one not-yet-rotated predecessor
		t.Errorf("completed history not reclaimed: %d segments remain", after)
	}
	w.Close()
	inc, _, _, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 0 {
		t.Errorf("%d incomplete after completing all", len(inc))
	}
}

func TestJournalCompletionBeforeAdmit(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := mustOpen(t, dir, Options{})
	// The streaming-ingest race: a frame's decode finishes (completion
	// journaled) before its delivery completes (admit journaled).
	if err := w.Complete(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(7, testHeader(4), testSamples(7, 10)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	inc, done, _, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 0 {
		t.Errorf("out-of-order pair left %d incomplete", len(inc))
	}
	if len(done) != 1 || done[0] != 7 {
		t.Errorf("completed = %v, want [7]", done)
	}
}

func TestJournalOrphanCompletionIgnored(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := mustOpen(t, dir, Options{})
	if err := w.Complete(99); err != nil { // no admit will ever arrive
		t.Fatal(err)
	}
	w.Close()
	inc, done, _, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 0 || len(done) != 0 {
		t.Errorf("orphan completion surfaced: %d incomplete, completed %v", len(inc), done)
	}
}

func TestJournalAppendAfterClose(t *testing.T) {
	w, _, _ := mustOpen(t, t.TempDir(), Options{})
	w.Close()
	if err := w.Append(1, testHeader(1), testSamples(1, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("Append after close: %v, want ErrClosed", err)
	}
	if err := w.Complete(1); !errors.Is(err, ErrClosed) {
		t.Errorf("Complete after close: %v, want ErrClosed", err)
	}
}

// TestJournalTornWriteEveryOffset is the torn-write recovery property test:
// a journal's final record truncated at every possible byte offset must
// recover every earlier frame exactly once and either replay or cleanly
// discard the final one — never error, never duplicate.
func TestJournalTornWriteEveryOffset(t *testing.T) {
	src := t.TempDir()
	w, _, _ := mustOpen(t, src, Options{})
	for id := uint64(1); id <= 3; id++ {
		if err := w.Append(id, testHeader(4), testSamples(id, 12)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs := segFiles(t, src)
	if len(segs) != 1 {
		t.Fatalf("expected a single segment, got %v", segs)
	}
	whole, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	lastStart := recordOffsets(t, whole)
	for cut := lastStart; cut <= len(whole); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		inc, done, _, err := Scan(dir)
		if err != nil {
			t.Fatalf("cut %d/%d: Scan errored: %v", cut, len(whole), err)
		}
		if len(done) != 0 {
			t.Fatalf("cut %d: phantom completions %v", cut, done)
		}
		if len(inc) != 2 && len(inc) != 3 {
			t.Fatalf("cut %d: recovered %d frames, want 2 or 3", cut, len(inc))
		}
		if cut == len(whole) && len(inc) != 3 {
			t.Fatalf("untruncated journal lost the final frame")
		}
		seen := map[uint64]bool{}
		for i, e := range inc {
			if seen[e.ID] {
				t.Fatalf("cut %d: frame %d recovered twice", cut, e.ID)
			}
			seen[e.ID] = true
			if e.ID != uint64(i+1) {
				t.Fatalf("cut %d: recovery order %v", cut, inc)
			}
			want := testSamples(e.ID, 12)
			for j := range want {
				if e.Samples[j] != want[j] {
					t.Fatalf("cut %d: frame %d sample %d corrupted", cut, e.ID, j)
				}
			}
		}
		// Full recovery (not just Scan) must also never error on a torn tail.
		w2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open errored: %v", cut, err)
		}
		w2.Close()
		if len(rec2.Incomplete) != len(inc) {
			t.Fatalf("cut %d: Open recovered %d, Scan %d", cut, len(rec2.Incomplete), len(inc))
		}
	}
}

// recordOffsets walks the segment's record framing and returns the byte
// offset where the final record begins.
func recordOffsets(t *testing.T, seg []byte) int {
	t.Helper()
	off := len(segMagic) + 1
	last := off
	for off+8 <= len(seg) {
		n := int(uint32(seg[off]) | uint32(seg[off+1])<<8 | uint32(seg[off+2])<<16 | uint32(seg[off+3])<<24)
		if off+8+n > len(seg) {
			break
		}
		last = off
		off += 8 + n
	}
	if off != len(seg) {
		t.Fatalf("segment framing does not tile the file: ended at %d of %d", off, len(seg))
	}
	return last
}

func TestJournalFaultWriteError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{OpenFile: OpenFaultFile(FaultWriteError, 600)})
	if err != nil {
		t.Fatal(err)
	}
	var failedAt uint64
	for id := uint64(1); id <= 100; id++ {
		if err := w.Append(id, testHeader(4), testSamples(id, 12)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Append(%d): %v, want ErrInjected", id, err)
			}
			failedAt = id
			break
		}
	}
	if failedAt == 0 {
		t.Fatal("fault never fired")
	}
	w.Close()
	// Recovery sees exactly the frames whose appends succeeded: the failed
	// write left nothing (FaultWriteError is all-or-nothing).
	inc, _, _, err := Scan(dir)
	if err != nil {
		t.Fatalf("Scan after fault: %v", err)
	}
	if len(inc) != int(failedAt-1) {
		t.Errorf("recovered %d frames, want %d", len(inc), failedAt-1)
	}
}

func TestJournalFaultShortWrite(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		dir := t.TempDir()
		trip := FaultPoint(seed, 1500)
		w, _, err := Open(dir, Options{OpenFile: OpenFaultFile(FaultShortWrite, trip)})
		if err != nil {
			t.Fatal(err)
		}
		var failedAt uint64
		for id := uint64(1); id <= 100; id++ {
			if err := w.Append(id, testHeader(4), testSamples(id, 12)); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("seed %d: Append(%d): %v, want ErrInjected", seed, id, err)
				}
				failedAt = id
				break
			}
		}
		if failedAt == 0 {
			t.Fatalf("seed %d: fault never fired (trip %d)", seed, trip)
		}
		w.Close()
		// The torn record on disk must be discarded by recovery, never
		// surfaced as a frame and never an error.
		inc, _, _, err := Scan(dir)
		if err != nil {
			t.Fatalf("seed %d: Scan after torn write: %v", seed, err)
		}
		if len(inc) > int(failedAt-1) {
			t.Errorf("seed %d: torn record surfaced: %d frames, at most %d valid", seed, len(inc), failedAt-1)
		}
		for i, e := range inc {
			if e.ID != uint64(i+1) {
				t.Errorf("seed %d: recovery order broken: %v", seed, inc)
				break
			}
		}
	}
}

func TestJournalFaultSyncError(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(dir, Options{Fsync: true, OpenFile: OpenFaultFile(FaultSyncError, 400)})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for id := uint64(1); id <= 100; id++ {
		if err := w.Append(id, testHeader(4), testSamples(id, 12)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("Append(%d): %v, want ErrInjected", id, err)
			}
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("sync fault never surfaced through Append")
	}
	w.Close()
	if _, _, _, err := Scan(dir); err != nil {
		t.Fatalf("Scan after sync fault: %v", err)
	}
}

func TestJournalScanMissingDir(t *testing.T) {
	inc, done, maxID, err := Scan(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatalf("missing dir: %v", err)
	}
	if len(inc) != 0 || len(done) != 0 || maxID != 0 {
		t.Error("missing dir scanned non-empty")
	}
}

func TestJournalIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-00000000.wal"), []byte("not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	inc, done, _, err := Scan(dir)
	if err != nil {
		t.Fatalf("foreign files broke the scan: %v", err)
	}
	if len(inc) != 0 || len(done) != 0 {
		t.Error("foreign file parsed as journal data")
	}
	// Open must still start cleanly alongside them.
	w, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, testHeader(4), testSamples(1, 4)); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

func TestJournalHostileRecordLength(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := mustOpen(t, dir, Options{})
	if err := w.Append(1, testHeader(4), testSamples(1, 4)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Append a record header declaring a huge body the file cannot back:
	// recovery must not allocate it, just stop at the intact prefix.
	data = append(data, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	inc, _, _, err := Scan(dir)
	if err != nil {
		t.Fatalf("hostile length errored the scan: %v", err)
	}
	if len(inc) != 1 || inc[0].ID != 1 {
		t.Errorf("intact prefix lost: %+v", inc)
	}
}

// FuzzJournalScan asserts recovery never panics and never errors on
// arbitrary segment contents — corruption anywhere can only truncate what a
// scan recovers, not break it.
func FuzzJournalScan(f *testing.F) {
	dir := f.TempDir()
	w, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Append(1, testHeader(4), testSamples(1, 8))
	_ = w.Append(2, testHeader(4), testSamples(2, 8))
	_ = w.Complete(1)
	w.Close()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		f.Fatalf("seeding fuzz corpus: %v", err)
	}
	valid, err := os.ReadFile(segs[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(segMagic))
	f.Add([]byte{})
	hostile := append(append([]byte{}, segMagic...), segVersion, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, segName(0)), data, 0o644); err != nil {
			t.Skip()
		}
		inc, done, _, err := Scan(fdir)
		if err != nil {
			t.Fatalf("Scan errored on fuzzed segment: %v", err)
		}
		seen := map[uint64]bool{}
		for _, e := range inc {
			if seen[e.ID] {
				t.Fatalf("frame %d recovered twice", e.ID)
			}
			seen[e.ID] = true
			if len(e.Samples) == 0 || len(e.Samples) > trace.MaxFramedSamples {
				t.Fatalf("recovered %d samples outside bounds", len(e.Samples))
			}
		}
		for _, id := range done {
			if seen[id] {
				t.Fatalf("frame %d both incomplete and completed", id)
			}
		}
	})
}

// TestJournalRecordCRCCatchesBitFlip flips one byte inside the final record
// body and asserts recovery discards that record.
func TestJournalRecordCRCCatchesBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, _, _ := mustOpen(t, dir, Options{})
	if err := w.Append(1, testHeader(4), testSamples(1, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(2, testHeader(4), testSamples(2, 8)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := segFiles(t, dir)[0]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, data...)
	corrupt[len(corrupt)-1] ^= 0x40
	if bytes.Equal(corrupt, data) {
		t.Fatal("corruption no-op")
	}
	if err := os.WriteFile(seg, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	inc, _, _, err := Scan(dir)
	if err != nil {
		t.Fatalf("bit flip errored the scan: %v", err)
	}
	if len(inc) != 1 || inc[0].ID != 1 {
		t.Errorf("CRC failed to fence the flipped record: %+v", inc)
	}
}
