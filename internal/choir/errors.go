package choir

import (
	"errors"
	"fmt"
	"math"
)

// The decoder's error taxonomy. Frame-level failures (returned by Decode,
// DetectTeam, DecodeTeam) and per-user failures (recorded in User.Err) are
// all wrapped around one of these sentinels — or around lora.ErrShortSignal
// / lora.ErrCRC from the PHY layer — so callers can classify outcomes with
// errors.Is instead of string matching.
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

// validateIQ rejects inputs that would poison the pipeline: any non-finite
// sample (ErrBadIQ), or severe ADC saturation (ErrSaturated). The saturation
// test counts samples where BOTH quadratures sit exactly on the global
// component peak — for a clean constant-envelope chirp the two components
// only rarely peak together, but hard clipping writes the identical rail
// value into both, so the pinned fraction jumps toward 1 as the rail drops
// below the envelope. Exact float comparison is intentional: clipping (ours
// and channel.Quantize's) assigns the rail, it doesn't approximate it.
func validateIQ(samples []complex128) error {
	if len(samples) == 0 {
		return nil
	}
	peak := 0.0
	for i, v := range samples {
		re, im := real(v), imag(v)
		if math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return fmt.Errorf("%w: sample %d = (%g,%g)", ErrBadIQ, i, re, im)
		}
		if a := math.Abs(re); a > peak {
			peak = a
		}
		if a := math.Abs(im); a > peak {
			peak = a
		}
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
