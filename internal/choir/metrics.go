package choir

import (
	"errors"

	"choir/internal/lora"
	"choir/internal/obs"
)

// Decoder observability: per-stage latency timers along the
// dechirp → FFT → peak search → residual minimization → SIC chain, and
// outcome counters for frame- and user-level failures, all registered in
// the process-wide obs registry. Recording is gated on obs.Enable and is
// allocation-free when disabled (BenchmarkDecodeMetricsOnVsOff pins that),
// and none of it feeds back into decoding — metrics can never change
// results or seed derivation (DESIGN.md §10).
var (
	mDecodeTimer     = obs.NewTimer("choir.decode_ns")
	mTeamDecodeTimer = obs.NewTimer("choir.team_decode_ns")

	mStageDechirp  = obs.NewTimer("choir.stage.dechirp_ns")
	mStageFFT      = obs.NewTimer("choir.stage.fft_ns")
	mStagePeaks    = obs.NewTimer("choir.stage.peak_search_ns")
	mStageResidual = obs.NewTimer("choir.stage.residual_min_ns")
	mStagePreamble = obs.NewTimer("choir.stage.preamble_ns")
	mStageSIC      = obs.NewTimer("choir.stage.sic_ns")
	mStageData     = obs.NewTimer("choir.stage.data_ns")

	mSICPhases = obs.NewCounter("choir.sic.phases")

	mScanBlocks  = obs.NewCounter("choir.scan.blocks")
	mScanSkipped = obs.NewCounter("choir.scan.blocks_skipped")

	mDecodes          = obs.NewCounter("choir.decode.calls")
	mDecodeOK         = obs.NewCounter("choir.decode.ok")
	mErrBadIQ         = obs.NewCounter("choir.decode.err.bad_iq")
	mErrSaturated     = obs.NewCounter("choir.decode.err.saturated")
	mErrShortSignal   = obs.NewCounter("choir.decode.err.short_signal")
	mErrNoUsers       = obs.NewCounter("choir.decode.err.no_users")
	mErrCanceled      = obs.NewCounter("choir.decode.err.canceled")
	mErrDeadline      = obs.NewCounter("choir.decode.err.deadline")
	mErrOther         = obs.NewCounter("choir.decode.err.other")
	mUsersDetected    = obs.NewCounter("choir.users.detected")
	mUserDecoded      = obs.NewCounter("choir.users.decoded")
	mUserCRCFailed    = obs.NewCounter("choir.users.crc_failed")
	mUserTrackingLost = obs.NewCounter("choir.users.tracking_lost")
)

// countDecodeErr classifies a frame-level decode error into the taxonomy
// counters. A nil error counts as a successful decode.
func countDecodeErr(err error) {
	switch {
	case err == nil:
		mDecodeOK.Inc()
	case errors.Is(err, ErrBadIQ):
		mErrBadIQ.Inc()
	case errors.Is(err, ErrSaturated):
		mErrSaturated.Inc()
	case errors.Is(err, lora.ErrShortSignal):
		mErrShortSignal.Inc()
	case errors.Is(err, ErrNoUsers), errors.Is(err, ErrNotDetected):
		mErrNoUsers.Inc()
	case errors.Is(err, ErrDeadline):
		mErrDeadline.Inc()
	case errors.Is(err, ErrCanceled):
		mErrCanceled.Inc()
	default:
		mErrOther.Inc()
	}
}

// countUserOutcome classifies one separated user's payload outcome.
func countUserOutcome(u *User) {
	switch {
	case u.Decoded():
		mUserDecoded.Inc()
	case errors.Is(u.Err, ErrTrackingLost):
		mUserTrackingLost.Inc()
	default:
		mUserCRCFailed.Inc()
	}
}
