package journal

import (
	"errors"
	"os"

	"choir/internal/exec"
)

// FaultMode selects which operation a FaultFile sabotages once its byte
// budget is spent.
type FaultMode int

const (
	// FaultWriteError makes Write fail outright — nothing from the failing
	// record reaches the file. Models ENOSPC or an I/O error surfacing at
	// write time.
	FaultWriteError FaultMode = iota
	// FaultShortWrite makes Write persist only part of the failing record
	// before erroring, leaving a genuinely torn record on disk. Models a
	// crash or disk-full mid-write — the case torn-tail recovery exists for.
	FaultShortWrite
	// FaultSyncError lets every Write through but fails Sync once the budget
	// is spent. Models a device that accepts data into its cache and then
	// cannot flush it.
	FaultSyncError
)

// ErrInjected is the error every triggered fault returns (wrapped callers can
// test for with errors.Is).
var ErrInjected = errors.New("journal: injected fault")

// FaultPoint derives a deterministic trip offset in [1, max] from a seed
// (exec.DeriveSeed), so fault-injection sweeps are reproducible: the same
// seed always faults at the same byte.
func FaultPoint(seed uint64, max int64) int64 {
	if max < 1 {
		return 1
	}
	return 1 + int64(exec.DeriveSeed(seed, 0xFA117)%uint64(max))
}

// FaultFile wraps a File and injects one fault after tripAfter bytes have
// been written, per its mode. After tripping, every subsequent Write or Sync
// (per the mode) keeps failing — a broken disk does not heal — while Close
// still closes the underlying file so test directories stay inspectable.
type FaultFile struct {
	f       File
	mode    FaultMode
	trip    int64
	written int64
	tripped bool
	// onWrite, when set, observes bytes actually persisted (used by
	// OpenFaultFile to share a budget across rotated segments).
	onWrite func(int64)
}

// NewFaultFile wraps f, arming a fault of the given mode once tripAfter
// bytes have been written through the wrapper.
func NewFaultFile(f File, mode FaultMode, tripAfter int64) *FaultFile {
	return &FaultFile{f: f, mode: mode, trip: tripAfter}
}

// OpenFaultFile is an Options.OpenFile factory: every segment the writer
// creates is wrapped in a FaultFile sharing one cumulative byte budget, so
// the fault lands at a deterministic point in the journal's total write
// stream regardless of rotation.
func OpenFaultFile(mode FaultMode, tripAfter int64) func(path string) (File, error) {
	var written int64
	return func(path string) (File, error) {
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		ff := NewFaultFile(f, mode, tripAfter-written)
		ff.onWrite = func(n int64) { written += n }
		return ff, nil
	}
}

// Write implements File, applying the write-path fault modes.
func (ff *FaultFile) Write(p []byte) (int, error) {
	if ff.tripped && ff.mode != FaultSyncError {
		return 0, ErrInjected
	}
	switch ff.mode {
	case FaultWriteError:
		if ff.written+int64(len(p)) > ff.trip {
			ff.tripped = true
			return 0, ErrInjected
		}
	case FaultShortWrite:
		if ff.written+int64(len(p)) > ff.trip {
			ff.tripped = true
			keep := ff.trip - ff.written
			if keep < 0 {
				keep = 0
			}
			n, err := ff.f.Write(p[:keep])
			ff.note(int64(n))
			if err != nil {
				return n, err
			}
			return n, ErrInjected
		}
	}
	n, err := ff.f.Write(p)
	ff.note(int64(n))
	return n, err
}

// Sync implements File.
func (ff *FaultFile) Sync() error {
	if ff.mode == FaultSyncError && ff.written >= ff.trip {
		ff.tripped = true
		return ErrInjected
	}
	if ff.tripped {
		return ErrInjected
	}
	return ff.f.Sync()
}

// Close implements File; it always closes the underlying file.
func (ff *FaultFile) Close() error { return ff.f.Close() }

func (ff *FaultFile) note(n int64) {
	ff.written += n
	if ff.onWrite != nil {
		ff.onWrite(n)
	}
}
