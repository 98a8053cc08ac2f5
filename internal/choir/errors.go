package choir

import (
	"context"
	"errors"
	"fmt"
	"math"

	"choir/internal/ctxutil"
	"choir/internal/lora"
)

// The decoder's error taxonomy. Frame-level failures (returned by Decode,
// DetectTeam, DecodeTeam) and per-user failures (recorded in User.Err) are
// all wrapped around one of these sentinels — or around lora.ErrPayloadLen,
// lora.ErrShortSignal or lora.ErrCRC from the PHY layer — so callers can
// classify outcomes with errors.Is instead of string matching (ErrClass).
var (
	// ErrBadIQ reports that the input contains non-finite (NaN or ±Inf)
	// samples. A single such value propagates through every FFT in the
	// pipeline and turns all spectra into NaN, so the decoder rejects the
	// frame up front rather than returning garbage users.
	ErrBadIQ = errors.New("choir: non-finite IQ samples")
	// ErrSaturated reports that the capture is severely clipped: the ADC
	// rails dominate the waveform, destroying the fractional-bin offsets the
	// decoder relies on. Mildly clipped frames are still attempted.
	ErrSaturated = errors.New("choir: IQ capture saturated")
	// ErrTrackingLost is recorded in User.Err when a user's fractional-bin
	// fingerprint could not be matched in most data windows, so no payload
	// decode was attempted.
	ErrTrackingLost = errors.New("choir: lost track of user")
	// ErrCanceled reports that a decode's context was canceled before the
	// decode finished. Cancellation is cooperative: the decoder polls the
	// context between pipeline stages (dechirp, FFT, SIC phases, data
	// windows), so the error surfaces within one stage boundary of the
	// cancel and no partial Result is returned.
	ErrCanceled = errors.New("choir: decode canceled")
	// ErrDeadline reports that a decode's context's deadline expired
	// mid-decode. Like ErrCanceled it is checked cooperatively at stage
	// boundaries; a deadline that never fires leaves results bit-identical
	// to a deadline-free decode.
	ErrDeadline = errors.New("choir: decode deadline exceeded")
)

// ContextErr is the one mapping from a fired context to the taxonomy: nil
// while ctx cannot fire (ctxutil.CanFire) or has not fired, otherwise
// ErrDeadline or ErrCanceled wrapping ctx.Err(). Every cooperative
// cancellation point — the decoder's stage polls, the non-Choir backends, the
// gateway's stream wait — reports through it.
func ContextErr(ctx context.Context) error {
	if !ctxutil.CanFire(ctx) {
		return nil
	}
	select {
	case <-ctx.Done():
		cause := ctx.Err()
		if errors.Is(cause, context.DeadlineExceeded) {
			return fmt.Errorf("%w: %w", ErrDeadline, cause)
		}
		return fmt.Errorf("%w: %w", ErrCanceled, cause)
	default:
		return nil
	}
}

// errClasses is the one decode-error taxonomy: an error's class is the name
// of the first sentinel here that it wraps (errors.Is), "other" when none.
// The order settles a chain that wraps two sentinels: a fired context first,
// then the capture, the separation, and the request. The comparison harness
// histograms failures by these names, and each class has a
// choir.decode.err.<class> counter (metrics.go).
var errClasses = [...]struct {
	err  error
	name string
}{
	{ErrDeadline, "deadline"},
	{ErrCanceled, "canceled"},
	{ErrBadIQ, "bad_iq"},
	{ErrSaturated, "saturated"},
	{ErrTrackingLost, "tracking_lost"},
	{ErrNoUsers, "no_users"},
	{ErrNotDetected, "not_detected"},
	{lora.ErrPayloadLen, "payload_len"},
	{lora.ErrShortSignal, "short_signal"},
	{lora.ErrCRC, "crc"},
	{nil, "other"},
}

// errClass returns the row of err's class in errClasses.
func errClass(err error) int {
	i := 0
	for errClasses[i].err != nil && !errors.Is(err, errClasses[i].err) {
		i++
	}
	return i
}

// ErrClass names err's class in the decode-error taxonomy: "bad_iq",
// "payload_len", ..., or "other" for an error wrapping no sentinel.
func ErrClass(err error) string { return errClasses[errClass(err)].name }

// ValidateIQ is the one rule for a decodable capture: it rejects any
// non-finite sample (ErrBadIQ), then severe ADC saturation (ErrSaturated).
// The saturation test counts samples where BOTH quadratures sit exactly on
// the global component peak — for a clean constant-envelope chirp the two
// components only rarely peak together, but hard clipping writes the
// identical rail value into both, so the pinned fraction jumps toward 1 as
// the rail drops below the envelope. Exact float comparison is intentional:
// clipping (ours and channel.Quantize's) assigns the rail, it doesn't
// approximate it. Every backend runs it on the whole capture.
func ValidateIQ(samples []complex128) error {
	// One pass finds the peak and finiteness together: max keeps a NaN and
	// an infinity, so peak is finite exactly when every sample is, and only
	// a refused capture is read again for its first bad sample.
	peak := 0.0
	for _, v := range samples {
		peak = max(peak, math.Abs(real(v)), math.Abs(imag(v)))
	}
	if !(peak <= math.MaxFloat64) {
		i := nonFinite(samples)
		return fmt.Errorf("%w: sample %d = (%g,%g)", ErrBadIQ, i, real(samples[i]), imag(samples[i]))
	}
	if peak == 0 {
		return nil
	}
	pinned := 0
	for _, v := range samples {
		if math.Abs(real(v)) == peak && math.Abs(imag(v)) == peak {
			pinned++
		}
	}
	if frac := float64(pinned) / float64(len(samples)); frac > 0.5 {
		return fmt.Errorf("%w: %.0f%% of samples pinned at the rail", ErrSaturated, 100*frac)
	}
	return nil
}

// nonFinite returns the index of the first sample with a NaN or infinite
// quadrature, or -1 when every sample is finite.
func nonFinite(samples []complex128) int {
	for i, v := range samples {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return i
		}
	}
	return -1
}
