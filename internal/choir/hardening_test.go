package choir

import (
	"bytes"
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"time"
)

// pollCountCtx counts the decoder's stage-boundary polls without ever
// firing, proving how many cooperative cancellation points one decode
// crosses.
type pollCountCtx struct {
	context.Context
	polls int
	open  chan struct{}
}

func newPollCount() *pollCountCtx {
	return &pollCountCtx{Context: context.Background(), open: make(chan struct{})}
}

func (c *pollCountCtx) Done() <-chan struct{} {
	c.polls++
	return c.open
}

// countdownCtx fires (returns a closed Done channel) after n polls, landing
// a cancellation at an exact, reproducible stage boundary mid-decode.
type countdownCtx struct {
	context.Context
	remaining int
	open      chan struct{}
	closed    chan struct{}
	fired     bool
}

func newCountdown(n int) *countdownCtx {
	c := &countdownCtx{
		Context:   context.Background(),
		remaining: n,
		open:      make(chan struct{}),
		closed:    make(chan struct{}),
	}
	close(c.closed)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.remaining <= 0 {
		c.fired = true
		return c.closed
	}
	c.remaining--
	return c.open
}

func (c *countdownCtx) Err() error {
	if c.fired {
		return context.Canceled
	}
	return nil
}

// assertSameResult compares two decode results bit for bit, every User
// field included.
func assertSameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Users) != len(want.Users) {
		t.Fatalf("got %d users, want %d", len(got.Users), len(want.Users))
	}
	for i := range want.Users {
		g, w := got.Users[i], want.Users[i]
		if math.Float64bits(g.Offset) != math.Float64bits(w.Offset) {
			t.Errorf("user %d offset %v != %v", i, g.Offset, w.Offset)
		}
		if math.Float64bits(real(g.Gain)) != math.Float64bits(real(w.Gain)) ||
			math.Float64bits(imag(g.Gain)) != math.Float64bits(imag(w.Gain)) {
			t.Errorf("user %d gain %v != %v", i, g.Gain, w.Gain)
		}
		if !slices.Equal(g.Symbols, w.Symbols) {
			t.Errorf("user %d symbols %v != %v", i, g.Symbols, w.Symbols)
		}
		if len(g.WindowOffsets) != len(w.WindowOffsets) {
			t.Errorf("user %d: %d window offsets, want %d", i, len(g.WindowOffsets), len(w.WindowOffsets))
		} else {
			for k := range w.WindowOffsets {
				if math.Float64bits(g.WindowOffsets[k]) != math.Float64bits(w.WindowOffsets[k]) {
					t.Errorf("user %d window offset %d: %v != %v", i, k, g.WindowOffsets[k], w.WindowOffsets[k])
					break
				}
			}
		}
		if !bytes.Equal(g.Payload, w.Payload) {
			t.Errorf("user %d payload %x != %x", i, g.Payload, w.Payload)
		}
		if (g.Err == nil) != (w.Err == nil) || (g.Err != nil && g.Err.Error() != w.Err.Error()) {
			t.Errorf("user %d err %v != %v", i, g.Err, w.Err)
		}
	}
}

// TestSaturationBoundaryExactlyHalf pins the ErrSaturated gate to its
// documented boundary: a capture with exactly 50% of samples rail-pinned is
// still attempted, one more pinned sample rejects it.
func TestSaturationBoundaryExactlyHalf(t *testing.T) {
	spec := defaultSpec(1, 7)
	sig := synthesize(t, spec)
	if len(sig)%2 == 1 {
		sig = sig[:len(sig)-1]
	}
	if need := spec.params.FrameSamples(len(spec.payloads[0])); len(sig) < need {
		t.Fatalf("fixture too short: %d < %d", len(sig), need)
	}
	peak := 0.0
	for _, v := range sig {
		peak = math.Max(peak, math.Max(math.Abs(real(v)), math.Abs(imag(v))))
	}
	half := len(sig) / 2
	for i := 0; i < half; i++ {
		sig[i] = complex(peak, peak)
	}

	d := MustNew(DefaultConfig(spec.params))
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); errors.Is(err, ErrSaturated) {
		t.Fatalf("exactly 50%% rail-pinned misclassified as saturated: %v", err)
	}
	sig[half] = complex(peak, peak)
	if _, err := d.Decode(context.Background(), sig, len(spec.payloads[0])); !errors.Is(err, ErrSaturated) {
		t.Fatalf("more than 50%% rail-pinned not rejected, err = %v", err)
	}
}

// TestCancelMidDecodeLeavesDecoderReusable pins two halves of the
// cancellation contract: a context that fires mid-pipeline (between SIC
// stage boundaries) surfaces as ErrCanceled with no partial result, and the
// same decoder instance then reproduces the uncanceled decode bit for bit,
// so a canceled decode cannot poison pooled state.
func TestCancelMidDecodeLeavesDecoderReusable(t *testing.T) {
	spec := defaultSpec(2, 3)
	sig := synthesize(t, spec)
	n := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)

	want, err := MustNew(cfg).Decode(context.Background(), sig, n)
	if err != nil {
		t.Fatal(err)
	}

	// A never-firing context changes nothing, and its poll count tells us
	// how many stage boundaries the decode crosses.
	d := MustNew(cfg)
	pc := newPollCount()
	got, err := d.Decode(pc, sig, n)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
	if pc.polls < 4 {
		t.Fatalf("decode crossed only %d cancellation points; the pipeline polls are broken", pc.polls)
	}

	// Fire halfway through those boundaries: typed error, no result.
	res, err := d.Decode(newCountdown(pc.polls/2), sig, n)
	if res != nil {
		t.Fatalf("canceled decode returned a partial result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// Reuse after the cancellation.
	got2, err := d.Decode(context.Background(), sig, n)
	if err != nil {
		t.Fatalf("decoder unusable after canceled decode: %v", err)
	}
	assertSameResult(t, got2, want)
}

// TestDeadlineNeverFiresIsDeterministic pins that merely having a deadline
// changes nothing: a Decode under a far-future deadline is bit-identical
// to a plain Decode.
func TestDeadlineNeverFiresIsDeterministic(t *testing.T) {
	spec := defaultSpec(2, 5)
	sig := synthesize(t, spec)
	n := len(spec.payloads[0])
	cfg := DefaultConfig(spec.params)

	want, err := MustNew(cfg).Decode(context.Background(), sig, n)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := MustNew(cfg).Decode(ctx, sig, n)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, got, want)
}
