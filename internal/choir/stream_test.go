package choir

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"choir/internal/lora"
)

// feeder is a test-side streaming writer: it fills a frame buffer chunk by
// chunk and wakes incremental decodes waiting on sample counts. The mutex
// gives the decode goroutine the happens-before edge on the written samples
// that the AvailFunc contract requires.
type feeder struct {
	mu     sync.Mutex
	have   int
	err    error
	notify chan struct{}
}

func newFeeder() *feeder { return &feeder{notify: make(chan struct{}, 1)} }

func (f *feeder) wake() {
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

func (f *feeder) add(n int) {
	f.mu.Lock()
	f.have += n
	f.mu.Unlock()
	f.wake()
}

func (f *feeder) fail(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
	f.wake()
}

func (f *feeder) avail(ctx context.Context, need int) error {
	for {
		f.mu.Lock()
		have, err := f.have, f.err
		f.mu.Unlock()
		if have >= need {
			return nil
		}
		if err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.notify:
		}
	}
}

// decodeStreaming runs an incremental decode against a writer goroutine that
// delivers sig in fixed-size chunks.
func decodeStreaming(t *testing.T, d *Decoder, sig []complex128, plen, chunk int) (*Result, error) {
	t.Helper()
	buf := make([]complex128, len(sig))
	f := newFeeder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := 0; off < len(sig); off += chunk {
			end := off + chunk
			if end > len(sig) {
				end = len(sig)
			}
			f.mu.Lock()
			copy(buf[off:end], sig[off:end])
			f.mu.Unlock()
			f.add(end - off)
		}
	}()
	res := &Result{}
	err := d.DecodeIncrementalCtxInto(context.Background(), res, buf, plen, f.avail)
	<-done
	return res, err
}

// TestIncrementalBitIdenticalToSerial pins the streaming tentpole invariant:
// a decode that starts on the preamble prefix while the data symbols are
// still arriving produces bit-identical results to the serial decode of the
// completed frame, across chunk sizes that land the prefix boundary mid-chunk.
func TestIncrementalBitIdenticalToSerial(t *testing.T) {
	spec := defaultSpec(2, 8)
	sig := synthesize(t, spec)
	plen := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)
	d := MustNew(cfg)
	want, err := d.Decode(context.Background(), sig, plen)
	if err != nil {
		t.Fatalf("serial decode: %v", err)
	}
	for _, chunk := range []int{257, 4096, len(sig)} {
		got, err := decodeStreaming(t, d, sig, plen, chunk)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		assertSameResult(t, got, want)
	}
	// nil avail (everything already present) forwards to the serial path.
	res := &Result{}
	if err := d.DecodeIncrementalCtxInto(context.Background(), res, sig, plen, nil); err != nil {
		t.Fatalf("nil avail: %v", err)
	}
	assertSameResult(t, res, want)
}

// TestIncrementalTailErrorMatchesSerial: a non-finite sample arriving after
// the early preamble scan already ran must surface the exact serial error —
// whole-frame validation happens before the speculative scan's results are
// consumed.
func TestIncrementalTailErrorMatchesSerial(t *testing.T) {
	spec := defaultSpec(1, 7)
	sig := synthesize(t, spec)
	plen := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)
	d := MustNew(cfg)
	bad := append([]complex128(nil), sig...)
	// Past the preamble prefix, so the early scan runs and must be discarded.
	idx := d.PreambleSamples() + 100
	bad[idx] = complex(math.NaN(), 0)

	_, serialErr := d.Decode(context.Background(), bad, plen)
	if !errors.Is(serialErr, ErrBadIQ) {
		t.Fatalf("serial error = %v, want ErrBadIQ", serialErr)
	}
	_, incErr := decodeStreaming(t, d, bad, plen, 301)
	if incErr == nil || incErr.Error() != serialErr.Error() {
		t.Fatalf("incremental error %q, want serial %q", incErr, serialErr)
	}
	// The decoder stays reusable: a clean decode afterwards matches serial.
	want, err := d.Decode(context.Background(), sig, plen)
	if err != nil {
		t.Fatalf("clean decode after error: %v", err)
	}
	got, err := decodeStreaming(t, d, sig, plen, 301)
	if err != nil {
		t.Fatalf("streaming decode after error: %v", err)
	}
	assertSameResult(t, got, want)
}

// TestIncrementalStreamFailurePropagates: when the stream dies before the
// frame completes, the writer's error comes back unwrapped and is counted as
// a decode failure, and the decoder remains reusable.
func TestIncrementalStreamFailurePropagates(t *testing.T) {
	spec := defaultSpec(1, 7)
	sig := synthesize(t, spec)
	plen := len(spec.payloads[0])
	d := MustNew(DefaultConfig(spec.params))

	streamDead := errors.New("stream died")
	buf := make([]complex128, len(sig))
	f := newFeeder()
	prefix := d.PreambleSamples()
	copy(buf[:prefix], sig[:prefix])
	f.add(prefix)
	f.fail(streamDead)
	res := &Result{}
	err := d.DecodeIncrementalCtxInto(context.Background(), res, buf, plen, f.avail)
	if !errors.Is(err, streamDead) {
		t.Fatalf("err = %v, want the stream's own error", err)
	}

	if _, err := d.Decode(context.Background(), sig, plen); err != nil {
		t.Fatalf("decoder not reusable after stream failure: %v", err)
	}
}

// TestIncrementalCancelWhileWaiting: a context canceled while avail blocks
// surfaces promptly through the AvailFunc (which owns ctx-awareness while
// waiting) instead of hanging the decode.
func TestIncrementalCancelWhileWaiting(t *testing.T) {
	spec := defaultSpec(1, 7)
	sig := synthesize(t, spec)
	plen := len(spec.payloads[0])
	d := MustNew(DefaultConfig(spec.params))

	buf := make([]complex128, len(sig))
	f := newFeeder()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := &Result{}
	err := d.DecodeIncrementalCtxInto(ctx, res, buf, plen, f.avail)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from avail", err)
	}
}

// TestIncrementalShortBuffer: a backing buffer shorter than the frame is
// rejected up front with the PHY's typed error, before any waiting.
func TestIncrementalShortBuffer(t *testing.T) {
	spec := defaultSpec(1, 7)
	d := MustNew(DefaultConfig(spec.params))
	avail := func(context.Context, int) error {
		t.Fatal("avail called for an impossible frame")
		return nil
	}
	err := d.DecodeIncrementalCtxInto(context.Background(), &Result{}, make([]complex128, 10), len(spec.payloads[0]), avail)
	if !errors.Is(err, lora.ErrShortSignal) {
		t.Fatalf("err = %v, want lora.ErrShortSignal", err)
	}
}
