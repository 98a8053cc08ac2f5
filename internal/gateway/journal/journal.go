// Package journal is the gateway's write-ahead frame log: every admitted
// frame is appended — header and samples in the trace.WriteFramed wire
// format, wrapped in a CRC-checked record — before a decode worker may touch
// it, and every terminal outcome appends a compact completion record. After
// a crash (kill -9, power loss, torn final write) recovery replays exactly
// the admitted-but-incomplete frames, preserving the gateway's
// exactly-one-terminal-outcome-per-accepted-frame invariant across process
// death.
//
// On-disk layout: a directory of segment files named journal-NNNNNNNN.wal,
// each starting with an 9-byte preamble ("CHOIRWAL" + format version) and
// holding a sequence of records:
//
//	u32 little-endian body length
//	u32 little-endian IEEE CRC-32 of the body
//	body:
//	  byte kind ('A' admit, 'C' complete)
//	  u64 little-endian frame ID
//	  admit only: the frame in trace.WriteFramed framing
//
// The CRC plus strictly sequential appends give torn-tail tolerance: a
// partial or corrupt record can only be the last thing written, so recovery
// reads records until the first short read or CRC mismatch and discards the
// tail from there — a torn final write costs at most the record being
// written, never poisons earlier records, and never errors recovery.
//
// Segments rotate at SegmentBytes; a rotated segment whose every admitted
// frame has completed is deleted on the spot, so steady-state disk usage is
// bounded by the in-flight window plus one segment. Completion records may
// land in a newer segment than their admit record; recovery matches the two
// by frame ID across all segments, in either order.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"choir/internal/trace"
)

// Segment preamble: magic plus one format-version byte.
const (
	segMagic   = "CHOIRWAL"
	segVersion = byte(1)
)

// Record kinds.
const (
	kindAdmit    = byte('A')
	kindComplete = byte('C')
)

// maxRecordBody caps a record body read during recovery. The framed trace
// inside an admit record is itself bounded by trace.MaxFramedSamples
// (16 bytes per sample), so anything larger is corruption, not data.
const maxRecordBody = 9 + 8 + trace.MaxFramedHeader + 16*trace.MaxFramedSamples

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero: large enough that a segment holds many typical SF7/SF8 frames,
// small enough that completed history is reclaimed promptly.
const DefaultSegmentBytes = 64 << 20

// ErrClosed reports an append to a closed writer.
var ErrClosed = errors.New("journal: writer closed")

// File is the slice of *os.File the writer needs. Tests substitute a
// fault-injecting implementation (NewFaultFile) to prove write and fsync
// failures surface as errors without corrupting recovery.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options parameterizes a Writer.
type Options struct {
	// Fsync syncs the segment file after every record, trading append
	// latency for power-loss durability. Without it the journal still
	// survives process death (kill -9) — the OS has the writes — but not a
	// machine crash with dirty pages.
	Fsync bool
	// SegmentBytes is the rotation threshold (default DefaultSegmentBytes).
	SegmentBytes int64
	// OpenFile overrides how segment files are created (tests inject
	// faults). Nil uses os.Create.
	OpenFile func(path string) (File, error)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (File, error) { return os.Create(path) }
	}
	return o
}

// Entry is one admitted-but-incomplete frame surfaced by recovery.
type Entry struct {
	// ID is the frame's original gateway-assigned identity; replaying under
	// it keeps outcomes and completion records keyed as the dead process had
	// them.
	ID      uint64
	Header  trace.Header
	Samples []complex128
}

// segment is one open or rotated-but-not-yet-reclaimable segment.
type segment struct {
	path string
	// outstanding counts admit records in this segment whose completion has
	// not been journaled yet; a rotated segment is deleted when it drains
	// to zero.
	outstanding int
}

// Writer appends admit and completion records. Methods are safe for
// concurrent use by the gateway's submitters and workers; appends are
// serialized so a record is never interleaved with another.
type Writer struct {
	dir  string
	opts Options

	// One mutex covers all mutable state, matching the strictly-sequential
	// append model.
	mu        sync.Mutex
	f         File
	active    *segment
	activeLen int64
	nextSeg   int
	segments  map[string]*segment // rotated segments still holding outstanding admits
	owner     map[uint64]*segment // frame ID -> segment holding its admit record
	// completedEarly holds IDs whose completion record arrived before their
	// admit record (the streaming-ingest race); the late admit is then not
	// counted outstanding.
	completedEarly map[uint64]bool
	buf            bytes.Buffer
	closed         bool
}

// segName formats a segment file name; the fixed-width index keeps
// lexicographic order equal to creation order.
func segName(n int) string { return fmt.Sprintf("journal-%08d.wal", n) }

// segIndex parses a segment file name, reporting whether it is one.
func segIndex(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "journal-%d.wal", &n); err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the directory's segment paths in creation order.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := segIndex(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths, nil
}

// Scan reads every segment in dir and reports the journal's state without
// modifying anything: the admitted-but-incomplete entries in admission
// order, the IDs that were admitted and completed (their terminal outcome
// is durably recorded even if the dying process never reported it), and the
// highest frame ID seen. Torn or corrupt segment tails are silently
// discarded — Scan never fails on a half-written record, only on I/O errors
// reading intact data. A missing directory scans as empty.
func Scan(dir string) (incomplete []Entry, completed []uint64, maxID uint64, err error) {
	paths, err := listSegments(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil, 0, nil
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("journal: scanning %s: %w", dir, err)
	}
	admits := map[uint64]Entry{}
	done := map[uint64]bool{}
	var order []uint64
	for _, path := range paths {
		if err := scanSegment(path, admits, done, &order, &maxID); err != nil {
			return nil, nil, 0, err
		}
	}
	for _, id := range order {
		if e, ok := admits[id]; ok && !done[id] {
			incomplete = append(incomplete, e)
		}
	}
	for _, id := range order {
		if _, ok := admits[id]; ok && done[id] {
			completed = append(completed, id)
		}
	}
	return incomplete, completed, maxID, nil
}

// scanSegment folds one segment's records into the accumulator maps,
// discarding the segment's tail at the first torn or corrupt record.
func scanSegment(path string, admits map[uint64]Entry, done map[uint64]bool, order *[]uint64, maxID *uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: opening %s: %w", path, err)
	}
	defer f.Close()
	r := newByteCounter(f)
	pre := make([]byte, len(segMagic)+1)
	if _, err := io.ReadFull(r, pre); err != nil {
		// A segment shorter than its preamble is a torn creation: skip it.
		return nil
	}
	if string(pre[:len(segMagic)]) != segMagic || pre[len(segMagic)] != segVersion {
		// Not a journal segment (or a future version): leave it alone rather
		// than misparse it, but don't fail recovery over it.
		return nil
	}
	var hdr [8]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn length prefix: done with this segment
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 || int64(n) > maxRecordBody {
			return nil // corrupt length: discard the tail
		}
		if cap(body) < int(n) {
			// Grow storage only as far as the file can actually back it, so
			// a hostile length within the cap still can't balloon memory.
			if remaining := r.remaining(); int64(n) > remaining {
				return nil
			}
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return nil // torn body
		}
		if crc32.ChecksumIEEE(body) != crc {
			return nil // corrupt record: discard the tail
		}
		if len(body) < 9 {
			return nil
		}
		kind, id := body[0], binary.LittleEndian.Uint64(body[1:9])
		if id > *maxID {
			*maxID = id
		}
		switch kind {
		case kindAdmit:
			h, samples, err := trace.ReadFramed(bytes.NewReader(body[9:]))
			if err != nil {
				return nil // corrupt payload inside an intact CRC: treat as tail
			}
			if _, seen := admits[id]; !seen {
				*order = append(*order, id)
			}
			admits[id] = Entry{ID: id, Header: h, Samples: samples}
		case kindComplete:
			done[id] = true
		default:
			return nil // unknown kind: discard the tail
		}
	}
}

// byteCounter wraps a file to expose how many bytes remain, so scanSegment
// can refuse to allocate a body the file cannot back.
type byteCounter struct {
	f    *os.File
	size int64
	read int64
}

func newByteCounter(f *os.File) *byteCounter {
	bc := &byteCounter{f: f, size: -1}
	if st, err := f.Stat(); err == nil {
		bc.size = st.Size()
	}
	return bc
}

func (bc *byteCounter) Read(p []byte) (int, error) {
	n, err := bc.f.Read(p)
	bc.read += int64(n)
	return n, err
}

func (bc *byteCounter) remaining() int64 {
	if bc.size < 0 {
		return int64(maxRecordBody)
	}
	return bc.size - bc.read
}

// Recovery is what Open found in the journal before it was compacted: the
// frames the caller must replay, the frames whose terminal outcome was
// already durable (report them — the dying process may never have), and the
// highest frame ID any record mentions (restart ID allocation above it so
// replayed and new frames can never collide).
type Recovery struct {
	Incomplete []Entry
	Completed  []uint64
	MaxID      uint64
}

// Open recovers dir and returns a running writer: it scans the existing
// segments, re-journals every admitted-but-incomplete frame into a fresh
// segment, deletes the superseded old segments, and hands back the
// Recovery describing what it found. A crash anywhere inside Open is safe:
// old segments are removed only after the re-journaled copies are synced,
// and a duplicate admit record across old and new segments collapses to one
// entry at the next recovery.
func Open(dir string, opts Options) (*Writer, Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("journal: creating %s: %w", dir, err)
	}
	incomplete, completed, maxID, err := Scan(dir)
	if err != nil {
		return nil, Recovery{}, err
	}
	rec := Recovery{Incomplete: incomplete, Completed: completed, MaxID: maxID}
	old, err := listSegments(dir)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("journal: listing %s: %w", dir, err)
	}
	next := 0
	for _, p := range old {
		if n, ok := segIndex(filepath.Base(p)); ok && n >= next {
			next = n + 1
		}
	}
	w := &Writer{
		dir:            dir,
		opts:           opts,
		nextSeg:        next,
		segments:       map[string]*segment{},
		owner:          map[uint64]*segment{},
		completedEarly: map[uint64]bool{},
	}
	if err := w.rotateLocked(); err != nil {
		return nil, Recovery{}, err
	}
	for _, e := range incomplete {
		if err := w.Append(e.ID, e.Header, e.Samples); err != nil {
			w.Close()
			return nil, Recovery{}, fmt.Errorf("journal: re-journaling frame %d: %w", e.ID, err)
		}
	}
	if len(incomplete) > 0 && !opts.Fsync {
		// The re-journaled copies must be durable before the originals go.
		w.mu.Lock()
		err := w.f.Sync()
		w.mu.Unlock()
		if err != nil {
			w.Close()
			return nil, Recovery{}, fmt.Errorf("journal: syncing recovery segment: %w", err)
		}
	}
	for _, p := range old {
		if err := os.Remove(p); err != nil {
			w.Close()
			return nil, Recovery{}, fmt.Errorf("journal: removing recovered segment: %w", err)
		}
	}
	return w, rec, nil
}

// rotateLocked opens the next segment file and retires the current one
// (deleting it immediately when it has nothing outstanding). Callers hold
// the lock — or, from Open, have not yet shared the writer.
func (w *Writer) rotateLocked() error {
	path := filepath.Join(w.dir, segName(w.nextSeg))
	f, err := w.opts.OpenFile(path)
	if err != nil {
		return fmt.Errorf("journal: creating segment: %w", err)
	}
	if _, err := io.WriteString(f, segMagic+string(segVersion)); err != nil {
		f.Close()
		return fmt.Errorf("journal: writing segment preamble: %w", err)
	}
	if prev := w.active; prev != nil {
		w.f.Close()
		if prev.outstanding == 0 {
			os.Remove(prev.path)
		} else {
			w.segments[prev.path] = prev
		}
	}
	w.f = f
	w.active = &segment{path: path}
	w.activeLen = int64(len(segMagic) + 1)
	w.nextSeg++
	return nil
}

// appendLocked frames, checksums, writes, and optionally syncs one record
// body. The body bytes are in w.buf.
func (w *Writer) appendLocked() error {
	body := w.buf.Bytes()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.f.Write(body); err != nil {
		return err
	}
	if w.opts.Fsync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	w.activeLen += int64(len(hdr) + len(body))
	return nil
}

// Append journals one admitted frame. It must complete before the frame is
// handed to a decode worker; on error the caller should fail the admission
// (the frame is not durable).
func (w *Writer) Append(id uint64, h trace.Header, samples []complex128) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.activeLen >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	w.buf.Reset()
	w.buf.WriteByte(kindAdmit)
	var id8 [8]byte
	binary.LittleEndian.PutUint64(id8[:], id)
	w.buf.Write(id8[:])
	if err := trace.WriteFramed(&w.buf, h, samples); err != nil {
		return fmt.Errorf("journal: encoding frame %d: %w", id, err)
	}
	if err := w.appendLocked(); err != nil {
		return fmt.Errorf("journal: appending frame %d: %w", id, err)
	}
	if w.completedEarly[id] {
		// The completion raced ahead (a streaming frame that finished decode
		// before its delivery was journaled); the pair is already settled.
		delete(w.completedEarly, id)
		return nil
	}
	w.active.outstanding++
	w.owner[id] = w.active
	return nil
}

// Complete journals one frame's terminal outcome and reclaims any rotated
// segment the completion drains. Completing an ID with no journaled admit
// is legal (the record becomes an ignored orphan at recovery); the pairing
// is remembered so a late admit does not leak outstanding accounting.
func (w *Writer) Complete(id uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.activeLen >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	w.buf.Reset()
	w.buf.WriteByte(kindComplete)
	var id8 [8]byte
	binary.LittleEndian.PutUint64(id8[:], id)
	w.buf.Write(id8[:])
	if err := w.appendLocked(); err != nil {
		return fmt.Errorf("journal: appending completion %d: %w", id, err)
	}
	seg, ok := w.owner[id]
	if !ok {
		w.completedEarly[id] = true
		return nil
	}
	delete(w.owner, id)
	seg.outstanding--
	if seg != w.active && seg.outstanding == 0 {
		delete(w.segments, seg.path)
		os.Remove(seg.path)
	}
	return nil
}

// Sync flushes the active segment to stable storage (a no-op per-record
// when Options.Fsync already syncs every append).
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.f.Sync()
}

// Close closes the active segment. It does not delete anything: whatever
// the journal holds stays recoverable. (Crash-simulation tests use it as a
// stand-in for process death — the records must survive it.)
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// CloseReclaim is the clean-shutdown close: when every journaled admit has
// a journaled completion — the caller reported every outcome before closing
// — the segments are deleted, so a restart has nothing to replay and
// nothing to announce. If any admit is still outstanding (a completion
// append failed mid-run, say), the segments are kept intact, exactly like
// Close: recoverability wins over tidiness.
func (w *Writer) CloseReclaim() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.f.Close()
	if err == nil && len(w.owner) == 0 {
		// owner empty implies every rotated segment already drained (the
		// segments map only parks outstanding ones), so the active segment
		// is all that is left — and it holds only settled pairs and orphans.
		os.Remove(w.active.path)
	}
	return err
}
